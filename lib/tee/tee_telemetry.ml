module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey

type state = (Flowkey.t, Record.metrics) Hashtbl.t

type t = {
  enclaves : (int, state Enclave.t) Hashtbl.t;
  meas : Zkflow_hash.Digest32.t;
}

let deploy platform ~router_ids ~code_id =
  if router_ids = [] then invalid_arg "Tee_telemetry.deploy: no routers";
  if List.length (List.sort_uniq Int.compare router_ids) <> List.length router_ids
  then invalid_arg "Tee_telemetry.deploy: duplicate router ids";
  let enclaves = Hashtbl.create (List.length router_ids) in
  let meas = ref None in
  List.iter
    (fun id ->
      let e = Enclave.launch platform ~code_id ~init:(Hashtbl.create 256 : state) in
      if !meas = None then meas := Some (Enclave.measurement e);
      Hashtbl.replace enclaves id e)
    router_ids;
  { enclaves; meas = Option.get !meas }

let code_measurement t = t.meas
let enclave_count t = Hashtbl.length t.enclaves

let ingest t record =
  match Hashtbl.find_opt t.enclaves record.Record.router_id with
  | None ->
    Error
      (Printf.sprintf "no TEE deployed on vantage point %d" record.Record.router_id)
  | Some enclave ->
    Enclave.run enclave (fun table ->
        let key = record.Record.key in
        let prev =
          Option.value (Hashtbl.find_opt table key) ~default:Record.zero_metrics
        in
        Hashtbl.replace table key (Record.add_metrics prev record.Record.metrics);
        (table, ()));
    Ok ()

let metrics_bytes (m : Record.metrics) =
  let b = Bytes.create 16 in
  Bytes.set_int32_be b 0 (Int32.of_int m.Record.packets);
  Bytes.set_int32_be b 4 (Int32.of_int m.Record.bytes);
  Bytes.set_int32_be b 8 (Int32.of_int m.Record.hop_count);
  Bytes.set_int32_be b 12 (Int32.of_int m.Record.losses);
  b

(* The attested payload names what it answers: the router id (4 bytes
   big-endian) and the flow key (16 bytes) come before the metrics, so
   a report for one (router, flow) pair cannot stand in for another. *)
let subject ~router_id key =
  let b = Bytes.create 20 in
  Bytes.set_int32_be b 0 (Int32.of_int router_id);
  Bytes.blit (Flowkey.to_bytes key) 0 b 4 16;
  b

let decode_report_metrics b =
  if Bytes.length b <> 36 then Error "report metrics: need 36 bytes"
  else
    let word i = Int32.to_int (Bytes.get_int32_be b (20 + (4 * i))) land 0xffffffff in
    Ok { Record.packets = word 0; bytes = word 1; hop_count = word 2; losses = word 3 }

let flow_report t ~router_id key =
  match Hashtbl.find_opt t.enclaves router_id with
  | None -> Error (Printf.sprintf "no TEE deployed on vantage point %d" router_id)
  | Some enclave ->
    let metrics =
      Enclave.run enclave (fun table ->
          ( table,
            Option.value (Hashtbl.find_opt table key) ~default:Record.zero_metrics ))
    in
    Ok
      (Enclave.attest enclave
         ~data:(Bytes.cat (subject ~router_id key) (metrics_bytes metrics)))

let verify_report ~attestation_key ~expected_measurement ~router_id ~key
    (r : Enclave.report) =
  Enclave.verify_report ~attestation_key ~expected_measurement r
  && Bytes.length r.Enclave.data = 36
  && Bytes.equal (Bytes.sub r.Enclave.data 0 20) (subject ~router_id key)
