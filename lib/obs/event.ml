module Jsonx = Zkflow_util.Jsonx

type t = {
  ts_ns : int;
  track : string;
  kind : string;
  router : int option;
  epoch : int option;
  round : int option;
  query : int option;
  attrs : (string * Jsonx.t) list;
}

(* Ring buffer: [buf.(head)] is the next write slot; [len] <= capacity.
   Oldest events are evicted (and counted) once the ring is full. *)
let lock = Mutex.create ()
let default_capacity = 65536
let buf = ref (Array.make default_capacity None)
let head = ref 0
let len = ref 0
let dropped_count = ref 0

let capacity () =
  Mutex.lock lock;
  let n = Array.length !buf in
  Mutex.unlock lock;
  n

let set_capacity n =
  let n = max 1 n in
  Mutex.lock lock;
  buf := Array.make n None;
  head := 0;
  len := 0;
  dropped_count := 0;
  Mutex.unlock lock

let reset () =
  Mutex.lock lock;
  Array.fill !buf 0 (Array.length !buf) None;
  head := 0;
  len := 0;
  dropped_count := 0;
  Mutex.unlock lock

let push e =
  Mutex.lock lock;
  let cap = Array.length !buf in
  !buf.(!head) <- Some e;
  head := (!head + 1) mod cap;
  if !len < cap then incr len else incr dropped_count;
  Mutex.unlock lock

let emit ?router ?epoch ?round ?query ?(attrs = []) ~track kind =
  if Control.on () then
    push { ts_ns = Clock.now_ns (); track; kind; router; epoch; round; query; attrs }

let record e = if Control.on () then push e

let events () =
  Mutex.lock lock;
  let cap = Array.length !buf in
  let n = !len in
  let first = (!head - n + cap) mod cap in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match !buf.((first + i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  Mutex.unlock lock;
  !out

let dropped () =
  Mutex.lock lock;
  let d = !dropped_count in
  Mutex.unlock lock;
  d

(* ---- JSONL ---- *)

let to_json e =
  let num v = Jsonx.Num (float_of_int v) in
  let opt k v = Option.map (fun v -> (k, num v)) v in
  Jsonx.Obj
    (List.filter_map Fun.id
       [
         Some ("ts_ns", num e.ts_ns);
         Some ("track", Jsonx.Str e.track);
         Some ("kind", Jsonx.Str e.kind);
         opt "router" e.router;
         opt "epoch" e.epoch;
         opt "round" e.round;
         opt "query" e.query;
       ]
    @ e.attrs)

let of_json v =
  match v with
  | Jsonx.Obj fields ->
    let int_field k =
      match List.assoc_opt k fields with
      | Some (Jsonx.Num f) -> Some (int_of_float f)
      | _ -> None
    in
    let str_field k =
      match List.assoc_opt k fields with Some (Jsonx.Str s) -> Some s | _ -> None
    in
    (match (int_field "ts_ns", str_field "track", str_field "kind") with
    | Some ts_ns, Some track, Some kind ->
      let reserved =
        [ "ts_ns"; "track"; "kind"; "router"; "epoch"; "round"; "query" ]
      in
      Ok
        {
          ts_ns;
          track;
          kind;
          router = int_field "router";
          epoch = int_field "epoch";
          round = int_field "round";
          query = int_field "query";
          attrs = List.filter (fun (k, _) -> not (List.mem k reserved)) fields;
        }
    | None, _, _ -> Error "event: missing numeric \"ts_ns\""
    | _, None, _ -> Error "event: missing string \"track\""
    | _, _, None -> Error "event: missing string \"kind\"")
  | _ -> Error "event: not a JSON object"

let parse_line line = Result.bind (Jsonx.parse line) of_json

let flush write =
  let evts = events () in
  Mutex.lock lock;
  Array.fill !buf 0 (Array.length !buf) None;
  head := 0;
  len := 0;
  Mutex.unlock lock;
  List.iter (fun e -> write (Jsonx.to_string (to_json e) ^ "\n")) evts

let write_jsonl ?(append = false) path =
  let flags =
    (if append then [ Open_append ] else [ Open_trunc ])
    @ [ Open_wronly; Open_creat ]
  in
  let oc = open_out_gen flags 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> flush (output_string oc))

let load_jsonl path =
  if not (Sys.file_exists path) then Error (path ^ ": not found")
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    (* A crash mid-flush leaves at most one torn line, and it is the
       final one — keep the longest decodable prefix and surface a
       note instead of failing the whole load. A bad line with intact
       events after it is corruption, not a torn tail, and still
       errors. *)
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc, None)
      | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else begin
          match parse_line line with
          | Ok e -> go (e :: acc) (lineno + 1) rest
          | Error e ->
            if List.for_all (fun l -> String.trim l = "") rest then
              Ok
                ( List.rev acc,
                  Some
                    (Printf.sprintf "%s:%d: truncated tail dropped (%s)" path
                       lineno e) )
            else Error (Printf.sprintf "%s:%d: %s" path lineno e)
        end
    in
    go [] 1 (List.rev !lines)
  end

let isolate f =
  Mutex.lock lock;
  let saved_buf = !buf
  and saved_head = !head
  and saved_len = !len
  and saved_dropped = !dropped_count in
  buf := Array.make (Array.length saved_buf) None;
  head := 0;
  len := 0;
  dropped_count := 0;
  Mutex.unlock lock;
  let restore () =
    Mutex.lock lock;
    buf := saved_buf;
    head := saved_head;
    len := saved_len;
    dropped_count := saved_dropped;
    Mutex.unlock lock
  in
  match f () with
  | v ->
    let captured = events () in
    restore ();
    (v, captured)
  | exception e ->
    restore ();
    raise e
