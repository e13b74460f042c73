module Record = Zkflow_netflow.Record

type t = {
  epoch : Epoch.policy;
  windows : (int * int, Table.t) Hashtbl.t; (* (router, epoch) -> rows *)
  by_epoch : (int, int list) Hashtbl.t; (* epoch -> its routers, newest first *)
  mutable created : (int * int) array; (* (router, epoch) in creation order *)
  mutable n_created : int;
  wal : Wal.t option;
  announced : (int * int, unit) Hashtbl.t; (* windows with a store.window event *)
  announced_m : Mutex.t;
}

let create ?wal_path ~epoch () =
  {
    epoch;
    windows = Hashtbl.create 64;
    by_epoch = Hashtbl.create 64;
    created = Array.make 64 (0, 0);
    n_created = 0;
    wal = Option.map Wal.open_log wal_path;
    announced = Hashtbl.create 64;
    announced_m = Mutex.create ();
  }

let epoch_policy t = t.epoch

let table t ~router_id ~epoch =
  match Hashtbl.find_opt t.windows (router_id, epoch) with
  | Some tbl -> tbl
  | None ->
    let tbl = Table.create ~name:(Printf.sprintf "rlogs.r%d.e%d" router_id epoch) in
    Hashtbl.replace t.windows (router_id, epoch) tbl;
    let routers = Option.value (Hashtbl.find_opt t.by_epoch epoch) ~default:[] in
    Hashtbl.replace t.by_epoch epoch (router_id :: routers);
    if t.n_created = Array.length t.created then begin
      let a = Array.make (2 * t.n_created) (0, 0) in
      Array.blit t.created 0 a 0 t.n_created;
      t.created <- a
    end;
    t.created.(t.n_created) <- (router_id, epoch);
    t.n_created <- t.n_created + 1;
    tbl

let insert t record =
  Zkflow_fault.Fault.crashpoint "store.insert";
  let epoch = Epoch.of_ts t.epoch record.Record.last_ts in
  let row = Codec.record_to_row record in
  ignore (Table.append (table t ~router_id:record.Record.router_id ~epoch) row);
  Option.iter (fun w -> Wal.append w row) t.wal

let insert_batch t records = List.iter (insert t) records

let add_window t ~router_id ~epoch = ignore (table t ~router_id ~epoch)

(* The first read of a window while the recorder is on emits its one
   [store.window] event; later reads (a round's fetch after the
   publisher's) add no new fact. Reads may come from the daemon's
   worker and the caller's thread at once, hence the lock. *)
let announce_first t ~router_id ~epoch records =
  if Zkflow_obs.Obs.on () then begin
    Mutex.lock t.announced_m;
    let first = not (Hashtbl.mem t.announced (router_id, epoch)) in
    if first then Hashtbl.replace t.announced (router_id, epoch) ();
    Mutex.unlock t.announced_m;
    if first then
      Zkflow_obs.Event.emit ~router:router_id ~epoch ~track:"store" "store.window"
        ~attrs:[ ("records", Zkflow_util.Jsonx.Num (float_of_int (Array.length records))) ]
  end

let window ?(announce = true) t ~router_id ~epoch =
  let records =
    match Hashtbl.find_opt t.windows (router_id, epoch) with
    | None -> [||]
    | Some tbl ->
      Array.init (Table.length tbl) (fun i ->
          match Table.get tbl i with
          | Some row -> (
            match Codec.record_of_row row with
            | Ok r -> r
            | Error e -> failwith ("Db.window: corrupt row: " ^ e))
          | None -> assert false)
  in
  if announce then announce_first t ~router_id ~epoch records;
  records

let routers t =
  Hashtbl.fold (fun (r, _) _ acc -> r :: acc) t.windows []
  |> List.sort_uniq Int.compare

let routers_for t ~epoch =
  match Hashtbl.find_opt t.by_epoch epoch with
  | None -> []
  | Some routers -> List.sort Int.compare routers

let epochs t = Hashtbl.fold (fun e _ acc -> e :: acc) t.by_epoch [] |> List.sort Int.compare
let epoch_count t = Hashtbl.length t.by_epoch
let window_count t = t.n_created

let windows_from t k =
  List.init (Int.max 0 (t.n_created - k)) (fun i -> t.created.(k + i))

let windows t =
  let routers = routers t in
  List.map (fun epoch -> (epoch, routers)) (epochs t)

let record_count t =
  Hashtbl.fold (fun _ tbl acc -> acc + Table.length tbl) t.windows 0

let tamper t ~router_id ~epoch ~pos f =
  match Hashtbl.find_opt t.windows (router_id, epoch) with
  | None -> Error "tamper: no such window"
  | Some tbl -> (
    match Table.get tbl pos with
    | None -> Error "tamper: position out of range"
    | Some row -> (
      match Codec.record_of_row row with
      | Error e -> Error e
      | Ok r ->
        Table.unsafe_overwrite tbl pos (Codec.record_to_row (f r));
        Ok ()))

let recover ~wal_path ~epoch =
  match Wal.replay wal_path with
  | Error e -> Error e
  | Ok rows ->
    let t = create ~epoch () in
    let rec go = function
      | [] -> Ok t
      | row :: rest -> (
        match Codec.record_of_row row with
        | Error e -> Error ("recover: " ^ e)
        | Ok r ->
          let e = Epoch.of_ts t.epoch r.Record.last_ts in
          ignore (Table.append (table t ~router_id:r.Record.router_id ~epoch:e) row);
          go rest)
    in
    go rows

let sync t =
  Zkflow_fault.Fault.crashpoint "store.sync";
  Option.iter Wal.sync t.wal;
  if Zkflow_obs.Control.on () then
    Zkflow_obs.Event.emit ~track:"store" "store.sync"
      ~attrs:[ ("records", Zkflow_util.Jsonx.Num (float_of_int (record_count t))) ]
