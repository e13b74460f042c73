module Fault = Zkflow_fault.Fault

type t = { path : string; oc : out_channel }

let open_log path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { path; oc }

let append t row =
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length row));
  output_bytes t.oc header;
  output_bytes t.oc row

let sync t =
  flush t.oc;
  try Unix.fsync (Unix.descr_of_out_channel t.oc) with
  | Unix.Unix_error _ | Sys_error _ -> ()

let close t = close_out t.oc

(* Unsynced appends vanish, exactly like a crash: the descriptor is
   pointed at /dev/null before the channel is closed, so the close
   flushes the buffer into nothing. Closing the raw descriptor alone
   would leave the buffer behind for the at-exit flush, which writes
   it into whatever file reuses the descriptor number — the resumed
   journal, as a stale row after the good ones. *)
let abandon t =
  try
    let fd = Unix.descr_of_out_channel t.oc in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () -> Unix.dup2 null fd);
    close_out_noerr t.oc
  with Unix.Unix_error _ | Sys_error _ -> ()

let replay path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in_bin path in
    let size = in_channel_length ic in
    let rec go acc pos =
      if pos + 4 > size then List.rev acc
      else begin
        let header = Bytes.create 4 in
        really_input ic header 0 4;
        let len = Int32.to_int (Bytes.get_int32_be header 0) in
        if len < 0 || pos + 4 + len > size then List.rev acc (* torn tail *)
        else begin
          let row = Bytes.create len in
          really_input ic row 0 len;
          go (row :: acc) (pos + 4 + len)
        end
      end
    in
    match go [] 0 with
    | rows ->
      close_in ic;
      Ok rows
    | exception e ->
      close_in_noerr ic;
      Error (Printexc.to_string e)
  end

let write_file_atomic ?(fsync = true) path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  output_bytes oc data;
  flush oc;
  if fsync then (
    try Unix.fsync (Unix.descr_of_out_channel oc) with
    | Unix.Unix_error _ | Sys_error _ -> ());
  close_out oc;
  Fault.crashpoint "atomic.pre_rename";
  Sys.rename tmp path

let rewrite path rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length row));
      Buffer.add_bytes buf header;
      Buffer.add_bytes buf row)
    rows;
  write_file_atomic path (Buffer.to_bytes buf)
