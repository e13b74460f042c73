module Jsonx = Zkflow_util.Jsonx
module R = Bench_row

type change = {
  key : string;
  field : string;
  old_v : float;
  new_v : float;
  ratio : float;
}

type report = {
  compared : int;
  regressions : change list;
  improvements : change list;
  notes : string list;
}

(* Provenance sanity of the comparison itself: the env blocks record
   where each artifact came from (EXPERIMENTS.md's provenance note).
   Comparing across commits, machines or quick/full modes is often
   intentional — baseline vs candidate is by construction
   cross-commit — so mismatches are surfaced as notes for the reader,
   never synthesized into regressions. *)
let env_notes ~(old_a : R.artifact) ~(new_a : R.artifact) =
  let o = old_a.env and n = new_a.env in
  let mismatch ?missing k label acc =
    let field env =
      match List.assoc_opt k env with Some (Jsonx.Str s) -> Some s | _ -> missing
    in
    match (field o, field n) with
    | Some a, Some b when a <> b ->
      Printf.sprintf "env: %s differs (%s vs %s) — %s comparison" k a b label :: acc
    | _ -> acc
  in
  let dirty env side acc =
    if List.assoc_opt "git_dirty" env = Some (Jsonx.Bool true) then
      Printf.sprintf "env: %s artifact was produced from a dirty tree" side :: acc
    else acc
  in
  let quick acc =
    match (List.assoc_opt "quick" o, List.assoc_opt "quick" n) with
    | Some (Jsonx.Bool a), Some (Jsonx.Bool b) when a <> b ->
      "env: quick-mode flag differs — sweeps cover different grids" :: acc
    | _ -> acc
  in
  [] |> mismatch "git_commit" "cross-commit"
  |> mismatch "hostname" "cross-machine"
  (* An artifact without the kernel counts as "unrecorded", so
     comparing one with an artifact that records it is noted. *)
  |> mismatch ~missing:"unrecorded" "sha256_kernel" "cross-kernel"
  |> dirty o "OLD" |> dirty n "NEW" |> quick |> List.rev

(* More pool jobs than cores time-slices the workers, so that row's
   timings are not an honest baseline. Judged per row: one artifact
   (the par sweep) runs several job counts. *)
let oversubscribed side (a : R.artifact) =
  match List.assoc_opt "ncores" a.env with
  | Some (Jsonx.Num cores) ->
    List.filter_map
      (fun (r : R.row) ->
        match List.assoc_opt "jobs" r.config with
        | Some (R.Int jobs) when float_of_int jobs > cores ->
          Some
            (Printf.sprintf
               "row [%s] of %s is oversubscribed (jobs %d > ncores %g) — its timings are not an honest baseline"
               (R.key r) side jobs cores)
        | _ -> None)
      a.rows
  | _ -> []

(* A phase's time is judged as a timing, its compressions as a count:
   exactly. *)
let phase_metrics (r : R.row) =
  List.concat_map
    (fun (name, (p : R.phase)) ->
      (Printf.sprintf "phases.%s.total_s" name, R.seconds p.total_s)
      :: Option.fold ~none:[]
           ~some:(fun k -> [ (Printf.sprintf "phases.%s.compressions" name, R.count k) ])
           p.compressions)
    r.phases

let ( let* ) = Result.bind

let diff ?(threshold = 0.25) ?(min_s = 0.05) ~old_json ~new_json () =
  let read side json = Result.map_error (fun e -> side ^ ": " ^ e) (R.of_json json) in
  let* old_a = read "OLD" old_json in
  let* new_a = read "NEW" new_json in
  let keyed (a : R.artifact) = List.map (fun r -> (R.key r, r)) a.rows in
  let old_k = keyed old_a and new_k = keyed new_a in
  let compared = ref 0 and regressions = ref [] and improvements = ref [] in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* A timing moves by noise, so it counts past [threshold] and only
     when either side reaches [min_s]. Every other unit is a count of
     work (cycles, bytes, bits, error ratios of seeded sketches) that
     repeats run to run, so any move counts. *)
  let judge key field (m : R.metric) new_v =
    incr compared;
    let old_v = m.value in
    let ratio = if old_v = 0. then if new_v = 0. then 1. else infinity else new_v /. old_v in
    let slack = if m.unit = "s" then threshold else 0. in
    let grew = ratio > 1. +. slack and shrank = ratio < 1. /. (1. +. slack) in
    let worse, better = match m.better with R.Lower -> (grew, shrank) | R.Higher -> (shrank, grew) in
    let change = { key; field; old_v; new_v; ratio } in
    if m.unit <> "s" || old_v >= min_s || new_v >= min_s then
      if worse then regressions := change :: !regressions
      else if better then improvements := change :: !improvements
  in
  List.iter
    (fun (key, old_row) ->
      match List.assoc_opt key new_k with
      | None -> note "row [%s] missing in NEW" key
      | Some new_row ->
        let new_metrics = new_row.R.metrics @ phase_metrics new_row in
        List.iter
          (fun (field, m) ->
            match List.assoc_opt field new_metrics with
            | None -> note "field %s of row [%s] missing in NEW" field key
            | Some n -> judge key field m n.R.value)
          (old_row.R.metrics @ phase_metrics old_row))
    old_k;
  List.iter
    (fun (key, _) -> if not (List.mem_assoc key old_k) then note "row [%s] only in NEW" key)
    new_k;
  if not (List.exists (fun (key, _) -> List.mem_assoc key new_k) old_k) then
    Error "the artifacts share no row key: nothing was compared"
  else if !compared = 0 then Error "the matched rows share no metric: nothing was compared"
  else
    Ok
      {
        compared = !compared;
        regressions = List.rev !regressions;
        improvements = List.rev !improvements;
        notes =
          env_notes ~old_a ~new_a @ oversubscribed "OLD" old_a @ oversubscribed "NEW" new_a
          @ List.rev !notes;
      }

let ok r = r.regressions = []

let pp_change fmt c =
  Format.fprintf fmt "  [%s] %s: %g -> %g (%.2fx)@," c.key c.field c.old_v c.new_v
    c.ratio

let pp fmt r =
  Format.fprintf fmt "@[<v>bench-diff: %d field(s) compared@," r.compared;
  if r.regressions = [] then Format.fprintf fmt "regressions: none@,"
  else begin
    Format.fprintf fmt "regressions: %d@," (List.length r.regressions);
    List.iter (pp_change fmt) r.regressions
  end;
  if r.improvements <> [] then begin
    Format.fprintf fmt "improvements: %d@," (List.length r.improvements);
    List.iter (pp_change fmt) r.improvements
  end;
  List.iter (fun n -> Format.fprintf fmt "note: %s@," n) r.notes;
  Format.fprintf fmt "verdict: %s@]" (if ok r then "OK" else "REGRESSED")

let change_json c =
  Jsonx.Obj
    [
      ("row", Jsonx.Str c.key);
      ("field", Jsonx.Str c.field);
      ("old", Jsonx.Num c.old_v);
      ("new", Jsonx.Num c.new_v);
      ("ratio", Jsonx.Num c.ratio);
    ]

let to_json r =
  Jsonx.Obj
    [
      ("compared", Jsonx.Num (float_of_int r.compared));
      ("regressions", Jsonx.Arr (List.map change_json r.regressions));
      ("improvements", Jsonx.Arr (List.map change_json r.improvements));
      ("notes", Jsonx.Arr (List.map (fun n -> Jsonx.Str n) r.notes));
      ("ok", Jsonx.Bool (ok r));
    ]
