module D = Zkflow_hash.Digest32
module Hmac = Zkflow_hash.Hmac

type platform = { hw_key : bytes }

let platform ~seed = { hw_key = Hmac.expand ~key:seed ~info:"zkflow.tee.hwkey" 32 }
let attestation_key p = Bytes.copy p.hw_key

type 'state t = {
  plat : platform;
  meas : D.t;
  mutable state : 'state;
}

let launch plat ~code_id ~init =
  { plat; meas = D.hash_string ("zkflow.tee.code:" ^ code_id); state = init }

let measurement t = t.meas

let run t f =
  let state, out = f t.state in
  t.state <- state;
  out

type report = { measurement : D.t; data : bytes; mac : bytes }

let report_mac ~key ~meas ~data =
  Hmac.mac_concat ~key [ Bytes.of_string "zkflow.tee.report"; D.unsafe_to_bytes meas; data ]

let attest t ~data =
  {
    measurement = t.meas;
    data = Bytes.copy data;
    mac = report_mac ~key:t.plat.hw_key ~meas:t.meas ~data;
  }

let verify_report ~attestation_key ~expected_measurement r =
  D.equal r.measurement expected_measurement
  && Zkflow_util.Bytesx.equal_constant_time r.mac
       (report_mac ~key:attestation_key ~meas:r.measurement ~data:r.data)
