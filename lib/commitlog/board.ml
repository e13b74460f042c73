module Chain = Zkflow_hash.Chain

(* A router's commitments, newest first, and indexed by epoch. *)
type router_state = {
  mutable chain : Chain.t;
  mutable entries : Commitment.t list;
  by_epoch : (int, Commitment.t) Hashtbl.t;
}

type t = { states : (int, router_state) Hashtbl.t }

let create () = { states = Hashtbl.create 16 }

let state t router_id =
  match Hashtbl.find_opt t.states router_id with
  | Some s -> s
  | None ->
    let s = { chain = Chain.genesis; entries = []; by_epoch = Hashtbl.create 64 } in
    Hashtbl.replace t.states router_id s;
    s

module Event = Zkflow_obs.Event
module Jsonx = Zkflow_util.Jsonx

(* Flight-recorder hooks. A fresh publication lands on the publishing
   router's track (it is the router's liveness signal the monitor
   reads commitment lag from); a replay of an already-serialized board
   is a distinct kind on the board's own track so it never counts as a
   new publication. Rejections name their cause. *)
let publish_event ~kind ~track (c : Commitment.t) =
  Event.emit ~router:c.Commitment.router_id ~epoch:c.Commitment.epoch ~track kind
    ~attrs:
      [
        ("records", Jsonx.Num (float_of_int c.Commitment.record_count));
        ("batch", Jsonx.Str (Zkflow_hash.Digest32.short c.Commitment.batch));
      ]

let reject_event ~router_id ~epoch reason =
  Event.emit ~router:router_id ~epoch ~track:"board" "board.reject"
    ~attrs:[ ("reason", Jsonx.Str reason) ]

let publish_with ?(replay = false) t ~router_id ~epoch make =
  let s = state t router_id in
  match s.entries with
  | last :: _ when last.Commitment.epoch >= epoch ->
    let msg =
      Printf.sprintf "board: epoch %d not after last published epoch %d" epoch
        last.Commitment.epoch
    in
    reject_event ~router_id ~epoch msg;
    Error msg
  | _ ->
    (* Crash site sits before any mutation: a publication either lands
       completely (entry + chain head) or not at all. *)
    Zkflow_fault.Fault.crashpoint "board.publish";
    let c, chain = make ~prev_chain:s.chain in
    s.chain <- chain;
    s.entries <- c :: s.entries;
    Hashtbl.replace s.by_epoch epoch c;
    if replay then publish_event ~kind:"board.replay" ~track:"board" c
    else
      publish_event ~kind:"board.publish"
        ~track:(Printf.sprintf "router.%d" router_id)
        c;
    Ok c

let publish t records ~router_id ~epoch =
  publish_with t ~router_id ~epoch (fun ~prev_chain ->
      Commitment.of_batch ~prev_chain ~router_id ~epoch records)

let publish_digest t ~batch ~record_count ~router_id ~epoch =
  publish_with ~replay:true t ~router_id ~epoch (fun ~prev_chain ->
      Commitment.of_digest ~prev_chain ~router_id ~epoch ~batch ~record_count)

let lookup t ~router_id ~epoch =
  match Hashtbl.find_opt t.states router_id with
  | None -> None
  | Some s -> Hashtbl.find_opt s.by_epoch epoch

let chain_head t ~router_id = Chain.head (state t router_id).chain
let commitments t ~router_id = List.rev (state t router_id).entries

let routers t =
  Hashtbl.fold (fun r _ acc -> r :: acc) t.states [] |> List.sort_uniq Int.compare

let export t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun router_id ->
      List.iter
        (fun (c : Commitment.t) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %d %s\n" c.Commitment.router_id
               c.Commitment.epoch c.Commitment.record_count
               (Zkflow_hash.Digest32.to_hex c.Commitment.batch)))
        (commitments t ~router_id))
    (routers t);
  Buffer.contents buf

let import text =
  let board = create () in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go = function
    | [] -> Ok board
    | line :: rest -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ r; e; n; hex ] -> (
        match
          ( int_of_string_opt r,
            int_of_string_opt e,
            int_of_string_opt n,
            Zkflow_util.Hexcodec.decode hex )
        with
        | Some router_id, Some epoch, Some record_count, Ok digest
          when Bytes.length digest = 32 -> (
          match
            publish_digest board
              ~batch:(Zkflow_hash.Digest32.of_bytes digest)
              ~record_count ~router_id ~epoch
          with
          | Ok _ -> go rest
          | Error msg -> Error msg)
        | _ -> Error (Printf.sprintf "board import: malformed line %S" line))
      | _ -> Error (Printf.sprintf "board import: malformed line %S" line))
  in
  go lines
