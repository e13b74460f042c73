(* A fixed Domain pool with chunk-claiming workers. One region runs at
   a time: the submitter publishes a chunk body under [lock], workers
   (and the submitter itself) claim chunk indices until none remain,
   and the last finisher wakes the submitter. Mutex acquire/release
   pairs give the happens-before edges that make buffer writes from
   workers visible to the submitter after the region drains. *)

module Obs = Zkflow_obs

(* Pool telemetry (recorded only while Zkflow_obs is enabled). Busy
   time accumulates per-domain in DLS cells, so workers never contend
   on a shared counter inside a region. *)
let m_tasks = Obs.Metric.counter "pool.tasks"
let m_busy = Obs.Metric.counter "pool.busy_ns"
let m_regions = Obs.Metric.counter "pool.regions"
let m_region_wall = Obs.Metric.counter "pool.region_wall_ns"
let m_submit_wait = Obs.Metric.counter "pool.submit_wait_ns"
let m_seq_regions = Obs.Metric.counter "pool.seq_regions"
let m_nested_seq = Obs.Metric.counter "pool.nested_seq"
let m_spawned = Obs.Metric.counter "pool.spawned_domains"
let h_region_chunks = Obs.Metric.histogram "pool.region_chunks"
let h_region_items = Obs.Metric.histogram "pool.region_items"

type pool = {
  size : int; (* total parallelism, submitter included *)
  lock : Mutex.t;
  work : Condition.t;  (* workers sleep here between regions *)
  drained : Condition.t; (* submitter sleeps here until live = 0 *)
  mutable body : (int -> unit) option; (* current region, indexed by chunk *)
  mutable next : int;    (* next unclaimed chunk *)
  mutable chunks : int;  (* chunk count of the current region *)
  mutable live : int;    (* chunks not yet finished *)
  mutable error : exn option;
  mutable handed : int;  (* compressions workers ran for the current region *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

(* True inside any pool-executed body (worker domains permanently,
   the submitting domain for the duration of a region): nested
   parallel regions must degrade to the sequential path rather than
   re-enter the pool. *)
let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let env_jobs () =
  match Sys.getenv_opt "ZKFLOW_JOBS" with
  | None -> None
  | Some s -> ( try Some (max 1 (int_of_string (String.trim s))) with _ -> None)

(* Configuration and the live pool, guarded by [master]. [submit]
   serialises whole regions so two top-level callers never interleave
   chunks of different bodies. *)
let master = Mutex.create ()
let submit = Mutex.create ()
let configured : int option ref = ref None
let current : pool option ref = ref None
let exit_hook_installed = ref false

let jobs () =
  Mutex.lock master;
  let j =
    match !configured with
    | Some j -> j
    | None ->
      let j =
        match env_jobs () with
        | Some j -> j
        | None -> max 1 (Domain.recommended_domain_count ())
      in
      configured := Some j;
      j
  in
  Mutex.unlock master;
  j

(* A clock read for the pool's own metrics, 0 while telemetry is off:
   not a span, which would note its start on the domain's stack of
   open spans and never close it. *)
let clock () = if Obs.Control.on () then Obs.Clock.now_ns () else 0

(* A worker's compressions for a chunk are handed back to the
   submitter ([~handed:true]), so the span around the region counts
   them as it would at one job. *)
let run_chunk p body c ~handed =
  let t0 = clock () in
  let w0 = if handed then Obs.Span.work () else 0 in
  (match body c with
  | () -> ()
  | exception e ->
    Mutex.lock p.lock;
    if p.error = None then p.error <- Some e;
    Mutex.unlock p.lock);
  if t0 <> 0 then begin
    Obs.Metric.add m_busy (Obs.Clock.now_ns () - t0);
    Obs.Metric.add m_tasks 1
  end;
  Mutex.lock p.lock;
  if handed then p.handed <- p.handed + (Obs.Span.work () - w0);
  p.live <- p.live - 1;
  if p.live = 0 then begin
    p.body <- None;
    Condition.broadcast p.drained
  end;
  Mutex.unlock p.lock

let worker p () =
  Domain.DLS.set inside true;
  Mutex.lock p.lock;
  let rec loop () =
    if p.stopping then Mutex.unlock p.lock
    else
      match p.body with
      | Some body when p.next < p.chunks ->
        let c = p.next in
        p.next <- p.next + 1;
        Mutex.unlock p.lock;
        run_chunk p body c ~handed:true;
        Mutex.lock p.lock;
        loop ()
      | _ ->
        Condition.wait p.work p.lock;
        loop ()
  in
  loop ()

let shutdown p =
  Mutex.lock p.lock;
  p.stopping <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.lock;
  Array.iter Domain.join p.workers

(* Must be called with [master] held. *)
let spawn_pool size =
  let p =
    {
      size;
      lock = Mutex.create ();
      work = Condition.create ();
      drained = Condition.create ();
      body = None;
      next = 0;
      chunks = 0;
      live = 0;
      error = None;
      handed = 0;
      stopping = false;
      workers = [||];
    }
  in
  p.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker p));
  Obs.Metric.add m_spawned (size - 1);
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit (fun () ->
        Mutex.lock master;
        let p = !current in
        current := None;
        Mutex.unlock master;
        Option.iter shutdown p)
  end;
  p

let get_pool () =
  let size = jobs () in
  Mutex.lock master;
  let p =
    match !current with
    | Some p when p.size = size -> p
    | stale ->
      Option.iter shutdown stale;
      let p = spawn_pool size in
      current := Some p;
      p
  in
  Mutex.unlock master;
  p

let set_jobs n =
  let n = max 1 n in
  Mutex.lock master;
  configured := Some n;
  let stale = match !current with Some p when p.size <> n -> !current | _ -> None in
  (match stale with Some _ -> current := None | None -> ());
  Mutex.unlock master;
  Option.iter shutdown stale

let run_region p ~chunks body =
  Mutex.lock submit;
  let t_region = Obs.Span.start () in
  Domain.DLS.set inside true;
  Mutex.lock p.lock;
  p.body <- Some body;
  p.next <- 0;
  p.chunks <- chunks;
  p.live <- chunks;
  p.error <- None;
  p.handed <- 0;
  Condition.broadcast p.work;
  (* The submitter claims chunks alongside the workers. *)
  let rec help () =
    if p.next < p.chunks && p.body <> None then begin
      let c = p.next in
      p.next <- p.next + 1;
      Mutex.unlock p.lock;
      run_chunk p body c ~handed:false;
      Mutex.lock p.lock;
      help ()
    end
  in
  help ();
  let t_wait = clock () in
  while p.live > 0 do
    Condition.wait p.drained p.lock
  done;
  if t_wait <> 0 then Obs.Metric.add m_submit_wait (Obs.Clock.now_ns () - t_wait);
  let err = p.error and handed = p.handed in
  p.error <- None;
  Mutex.unlock p.lock;
  Obs.Span.carry handed;
  Domain.DLS.set inside false;
  if t_region <> 0 then begin
    Obs.Metric.add m_regions 1;
    Obs.Metric.add m_region_wall (Obs.Clock.now_ns () - t_region);
    Obs.Metric.observe h_region_chunks chunks;
    Obs.Span.finish "pool.region" ~args:[ ("chunks", chunks) ] t_region
  end;
  Mutex.unlock submit;
  match err with Some e -> raise e | None -> ()

let parallel_for ?(min_chunk = 256) n body =
  if n > 0 then begin
    let min_chunk = max 1 min_chunk in
    if jobs () <= 1 || Domain.DLS.get inside || n < 2 * min_chunk then begin
      if Obs.Control.on () then begin
        if Domain.DLS.get inside then Obs.Metric.add m_nested_seq 1
        else Obs.Metric.add m_seq_regions 1
      end;
      body 0 n
    end
    else begin
      let p = get_pool () in
      if Obs.Control.on () then Obs.Metric.observe h_region_items n;
      (* Over-decompose a little so uneven chunks load-balance. *)
      let chunks = min (4 * p.size) (n / min_chunk) in
      let chunk_size = (n + chunks - 1) / chunks in
      let chunks = (n + chunk_size - 1) / chunk_size in
      run_region p ~chunks (fun c ->
          let lo = c * chunk_size in
          body lo (min n (lo + chunk_size)))
    end
  end

let init_array ?min_chunk n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    parallel_for ?min_chunk (n - 1) (fun lo hi ->
        for i = lo + 1 to hi do
          a.(i) <- f i
        done);
    a
  end

let map_array ?min_chunk f a = init_array ?min_chunk (Array.length a) (fun i -> f a.(i))

type stats = {
  jobs : int;
  regions : int;
  tasks : int;
  busy_ns : int;
  region_wall_ns : int;
  submit_wait_ns : int;
  seq_regions : int;
  nested_seq : int;
  spawned_domains : int;
}

let stats () =
  {
    jobs = jobs ();
    regions = Obs.Metric.value m_regions;
    tasks = Obs.Metric.value m_tasks;
    busy_ns = Obs.Metric.value m_busy;
    region_wall_ns = Obs.Metric.value m_region_wall;
    submit_wait_ns = Obs.Metric.value m_submit_wait;
    seq_regions = Obs.Metric.value m_seq_regions;
    nested_seq = Obs.Metric.value m_nested_seq;
    spawned_domains = Obs.Metric.value m_spawned;
  }

let utilization s =
  if s.region_wall_ns <= 0 || s.jobs <= 0 then 0.
  else
    float_of_int s.busy_ns /. (float_of_int s.jobs *. float_of_int s.region_wall_ns)
