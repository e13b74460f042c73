type evt = {
  name : string;
  ts_ns : int;
  dur_ns : int;
  tid : int;
  parent : int;
  args : (string * int) list;
  compressions : int;
}

type total = { count : int; total_ns : int; compressions : int }

(* Recorded at [finish] with parent = -1; the enclosing span is still
   open then, so parents are reconstructed in [events] from interval
   nesting (spans on one domain close LIFO, so a stack sweep over the
   open-time order is exact). *)
let lock = Mutex.create ()
let buf : evt list ref = ref []
let count = ref 0

(* The hash work a span covers: the compressions run on its behalf,
   [work ()], read at its start, kept per domain on a stack of open
   spans (start time, work), innermost last, and subtracted at its
   finish. Spans on one domain close LIFO, so a finish drops its own
   entry and any inner one left open by an early return or an
   exception. An entry whose span never finishes stays until the
   stack is full, when the older half is dropped. *)
let compressions = Metric.counter "sha256.compressions"
let open_max = 32

(* A domain's work is its own [sha256.compressions] cell plus what
   pool workers ran for the parallel regions it submitted, which the
   pool hands back with [carry]. So a span counts its own hashing and
   its regions', never that of a span running at the same time on
   another domain, and the count is the same at every job count. *)
let carried = Domain.DLS.new_key (fun () -> ref 0)
let carry n = if n <> 0 then Domain.DLS.get carried := !(Domain.DLS.get carried) + n
let work () = Metric.local compressions + !(Domain.DLS.get carried)

type opened = { starts : int array; mutable depth : int }

let opened = Domain.DLS.new_key (fun () -> { starts = Array.make (2 * open_max) 0; depth = 0 })

let start () =
  if Control.on () then begin
    let t0 = Clock.now_ns () in
    let o = Domain.DLS.get opened in
    if o.depth = open_max then begin
      let keep = open_max / 2 in
      Array.blit o.starts (2 * (open_max - keep)) o.starts 0 (2 * keep);
      o.depth <- keep
    end;
    o.starts.(2 * o.depth) <- t0;
    o.starts.((2 * o.depth) + 1) <- work ();
    o.depth <- o.depth + 1;
    t0
  end
  else 0

(* The work since the open span that started at [t0], which is closed
   with every span opened after it; 0 when no open span started
   then. *)
let close t0 =
  let o = Domain.DLS.get opened in
  let rec find d = if d < 0 || o.starts.(2 * d) = t0 then d else find (d - 1) in
  let d = find (o.depth - 1) in
  if d < 0 then 0
  else begin
    o.depth <- d;
    work () - o.starts.((2 * d) + 1)
  end

let finish ?(args = []) name t0 =
  if t0 <> 0 && Control.on () then begin
    let now = Clock.now_ns () in
    let e =
      {
        name;
        ts_ns = t0;
        dur_ns = now - t0;
        tid = (Domain.self () :> int);
        parent = -1;
        args;
        compressions = close t0;
      }
    in
    Mutex.lock lock;
    buf := e :: !buf;
    incr count;
    Mutex.unlock lock
  end

let with_span name f =
  let t0 = start () in
  match f () with
  | v ->
    finish name t0;
    v
  | exception e ->
    finish name t0;
    raise e

let events () =
  Mutex.lock lock;
  let l = !buf in
  Mutex.unlock lock;
  let a = Array.of_list l in
  (* Open-time order; on ties the longer (outer) span first. *)
  Array.sort
    (fun a b ->
      match Int.compare a.ts_ns b.ts_ns with
      | 0 -> Int.compare b.dur_ns a.dur_ns
      | c -> c)
    a;
  let stacks : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let out =
    Array.mapi
      (fun i e ->
        let stack =
          match Hashtbl.find_opt stacks e.tid with
          | Some s -> s
          | None ->
            let s = ref [] in
            Hashtbl.add stacks e.tid s;
            s
        in
        let e_end = e.ts_ns + e.dur_ns in
        let rec pop () =
          match !stack with
          | (_, fin) :: rest when fin <= e.ts_ns ->
            stack := rest;
            pop ()
          | _ -> ()
        in
        pop ();
        let parent =
          match !stack with
          | (pi, fin) :: _ when e_end <= fin -> pi
          | _ -> -1
        in
        stack := (i, e_end) :: !stack;
        { e with parent })
      a
  in
  Array.to_list out

let totals () =
  let tbl : (string, total) Hashtbl.t = Hashtbl.create 16 in
  Mutex.lock lock;
  let l = !buf in
  Mutex.unlock lock;
  List.iter
    (fun e ->
      let t =
        Option.value (Hashtbl.find_opt tbl e.name)
          ~default:{ count = 0; total_ns = 0; compressions = 0 }
      in
      Hashtbl.replace tbl e.name
        {
          count = t.count + 1;
          total_ns = t.total_ns + e.dur_ns;
          compressions = t.compressions + e.compressions;
        })
    l;
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Mutex.lock lock;
  buf := [];
  count := 0;
  Mutex.unlock lock;
  (Domain.DLS.get opened).depth <- 0
