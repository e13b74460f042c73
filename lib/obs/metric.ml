type counter = {
  c_name : string;
  c_lock : Mutex.t;            (* guards [cells] *)
  cells : int ref list ref;    (* one per domain that ever recorded *)
  key : int ref Domain.DLS.key;
}

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  buckets : int array;         (* index = bit length of the value *)
  mutable count : int;
  mutable sum : int;
  mutable max_value : int;
}

type histogram_snapshot = {
  count : int;
  sum : int;
  max_value : int;
  buckets : (int * int) list;
}

(* Registry. Metrics are created at module-init time (single domain)
   or lazily from tests; the lock makes the latter safe too. *)
let registry_lock = Mutex.create ()
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock registry_lock;
  let c =
    match Hashtbl.find_opt counters_tbl name with
    | Some c -> c
    | None ->
      let c_lock = Mutex.create () in
      let cells = ref [] in
      (* The DLS initialiser runs in whichever domain first records;
         it registers that domain's cell so readers can sum it. *)
      let key =
        Domain.DLS.new_key (fun () ->
            let cell = ref 0 in
            Mutex.lock c_lock;
            cells := cell :: !cells;
            Mutex.unlock c_lock;
            cell)
      in
      let c = { c_name = name; c_lock; cells; key } in
      Hashtbl.add counters_tbl name c;
      c
  in
  Mutex.unlock registry_lock;
  c

let add c n = if Control.on () then begin
    let cell = Domain.DLS.get c.key in
    cell := !cell + n
  end

let value c =
  Mutex.lock c.c_lock;
  let v = List.fold_left (fun acc cell -> acc + !cell) 0 !(c.cells) in
  Mutex.unlock c.c_lock;
  v

let local c = !(Domain.DLS.get c.key)

let bucket_index v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min 62 (bits v 0)
  end

let histogram name =
  Mutex.lock registry_lock;
  let h =
    match Hashtbl.find_opt histograms_tbl name with
    | Some h -> h
    | None ->
      let h =
        {
          h_name = name;
          h_lock = Mutex.create ();
          buckets = Array.make 63 0;
          count = 0;
          sum = 0;
          max_value = min_int;
        }
      in
      Hashtbl.add histograms_tbl name h;
      h
  in
  Mutex.unlock registry_lock;
  h

let observe h v = if Control.on () then begin
    Mutex.lock h.h_lock;
    h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v > h.max_value then h.max_value <- v;
    Mutex.unlock h.h_lock
  end

let snapshot_of_buckets ~count ~sum ~max_value buckets_arr =
  let last_used = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then last_used := i) buckets_arr;
  let cum = ref 0 in
  let buckets = ref [] in
  for i = 0 to !last_used do
    cum := !cum + buckets_arr.(i);
    (* le bound of bucket i: largest value with bit length i. *)
    let le = if i = 0 then 0 else (1 lsl i) - 1 in
    buckets := (le, !cum) :: !buckets
  done;
  {
    count;
    sum;
    max_value = (if count = 0 then 0 else max_value);
    buckets = List.rev !buckets;
  }

let snapshot h =
  Mutex.lock h.h_lock;
  let s =
    snapshot_of_buckets ~count:h.count ~sum:h.sum ~max_value:h.max_value h.buckets
  in
  Mutex.unlock h.h_lock;
  s

(* Pure variant for consumers that already hold the values (the round
   summaries a health report replays, for instance) and want the same
   log2-bucket percentile estimates without touching the registry or
   the telemetry gate. *)
let snapshot_of_values vs =
  let buckets = Array.make 63 0 in
  let count = ref 0 and sum = ref 0 and max_value = ref min_int in
  List.iter
    (fun v ->
      let i = bucket_index v in
      buckets.(i) <- buckets.(i) + 1;
      incr count;
      sum := !sum + v;
      if v > !max_value then max_value := v)
    vs;
  snapshot_of_buckets ~count:!count ~sum:!sum ~max_value:!max_value buckets

let percentile (s : histogram_snapshot) q =
  if s.count = 0 then 0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))) in
    let rec find = function
      | [] -> s.max_value
      | (le, cum) :: rest -> if cum >= rank then le else find rest
    in
    (* A bucket's [le] is an upper bound; the true maximum is a
       tighter one for the top bucket. *)
    min (find s.buckets) s.max_value
  end

let sorted_by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters () =
  Mutex.lock registry_lock;
  let l = Hashtbl.fold (fun name c acc -> (name, c) :: acc) counters_tbl [] in
  Mutex.unlock registry_lock;
  sorted_by_name (List.map (fun (name, c) -> (name, value c)) l)

let histograms () =
  Mutex.lock registry_lock;
  let l = Hashtbl.fold (fun name h acc -> (name, h) :: acc) histograms_tbl [] in
  Mutex.unlock registry_lock;
  sorted_by_name (List.map (fun (name, h) -> (name, snapshot h)) l)

let reset_all () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ c ->
      Mutex.lock c.c_lock;
      List.iter (fun cell -> cell := 0) !(c.cells);
      Mutex.unlock c.c_lock)
    counters_tbl;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.h_lock;
      Array.fill h.buckets 0 (Array.length h.buckets) 0;
      h.count <- 0;
      h.sum <- 0;
      h.max_value <- min_int;
      Mutex.unlock h.h_lock)
    histograms_tbl;
  Mutex.unlock registry_lock
