module Jsonx = Zkflow_util.Jsonx

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

let rows_of json =
  match Jsonx.member "rows" json with
  | Some (Jsonx.Arr rows) -> Ok rows
  | _ -> (
    match Jsonx.member "sweep" json with
    | Some (Jsonx.Arr rows) -> Ok rows
    | _ -> Error "bench-diff: no \"rows\" or \"sweep\" array in artifact")

(* Row identity: the full configuration key — every sweep axis the
   bench binary writes. A fig4 row is keyed by record count alone, a
   parallel-sweep row by job count, a matrix row by backend + proof
   parameters + scale. Matching on the whole configuration means a
   grid change (say, a new queries setting) produces one-side notes,
   never a false regression from comparing unlike cells. *)
let row_key row =
  let num name =
    match Jsonx.member name row with
    | Some (Jsonx.Num f) -> Some (Printf.sprintf "%s=%d" name (int_of_float f))
    | _ -> None
  in
  let str name =
    match Jsonx.member name row with
    | Some (Jsonx.Str s) -> Some (Printf.sprintf "%s=%s" name s)
    | _ -> None
  in
  match
    List.filter_map Fun.id
      [ str "backend"; num "queries"; num "records"; num "routers"; num "jobs" ]
  with
  | [] -> None
  | parts -> Some (String.concat " " parts)

let has_suffix s suf = Filename.check_suffix s suf

(* Flatten one row into comparable numeric fields. Key axes and pool
   stats are excluded: the former are identity, the latter depend on
   machine load, not on the code under test. *)
let numeric_fields row =
  match row with
  | Jsonx.Obj members ->
    List.concat_map
      (fun (name, v) ->
        match (name, v) with
        | ("records" | "jobs" | "backend" | "queries" | "routers" | "pool"), _ ->
          []
        | "phases", Jsonx.Obj phases ->
          let fields =
            List.filter_map
              (fun (phase, pv) ->
                match Jsonx.member "total_s" pv with
                | Some (Jsonx.Num f) ->
                  Some (Printf.sprintf "phases.%s.total_s" phase, f)
                | _ -> None)
              phases
          in
          (* Tree-maintenance time is one budget regardless of which
             path spent it: an artifact from before the incremental
             tree bills everything to merkle.build, a current one
             splits it with merkle.incr_update. Synthesize the family
             total so the gate compares like with like across that
             split (and catches an incremental path that got slower
             than the rebuild it replaced). *)
          let build_family =
            List.fold_left
              (fun acc (name, v) ->
                if
                  name = "phases.merkle.build.total_s"
                  || name = "phases.merkle.incr_update.total_s"
                then acc +. v
                else acc)
              0. fields
          in
          if
            List.exists
              (fun (name, _) ->
                name = "phases.merkle.build.total_s"
                || name = "phases.merkle.incr_update.total_s")
              fields
          then ("phases.merkle.build_family.total_s", build_family) :: fields
          else fields
        | _, Jsonx.Num f -> [ (name, f) ]
        | _ -> [])
      members
  | _ -> []

(* Provenance sanity of the comparison itself: the env blocks record
   where each artifact came from (EXPERIMENTS.md's provenance note).
   Comparing across commits, machines or quick/full modes is often
   intentional — baseline vs candidate is by construction
   cross-commit — so mismatches are surfaced as notes for the reader,
   never synthesized into regressions. *)
let env_notes ~old_json ~new_json =
  match (Jsonx.member "env" old_json, Jsonx.member "env" new_json) with
  | Some o, Some n ->
    let str k j =
      match Jsonx.member k j with Some (Jsonx.Str s) -> Some s | _ -> None
    in
    let mismatch ?missing k label acc =
      let field j = match str k j with None -> missing | v -> v in
      match (field o, field n) with
      | Some a, Some b when a <> b ->
        Printf.sprintf "env: %s differs (%s vs %s) — %s comparison" k a b label
        :: acc
      | _ -> acc
    in
    let dirty j side acc =
      if Jsonx.member "git_dirty" j = Some (Jsonx.Bool true) then
        Printf.sprintf "env: %s artifact was produced from a dirty tree" side
        :: acc
      else acc
    in
    let quick acc =
      match (Jsonx.member "quick" o, Jsonx.member "quick" n) with
      | Some (Jsonx.Bool a), Some (Jsonx.Bool b) when a <> b ->
        "env: quick-mode flag differs — sweeps cover different grids" :: acc
      | _ -> acc
    in
    (* More pool jobs than cores time-slices the workers, so the
       artifact's timings are not an honest baseline. *)
    let oversubscribed j side acc =
      match (Jsonx.member "zkflow_jobs" j, Jsonx.member "ncores" j) with
      | Some (Jsonx.Num jobs), Some (Jsonx.Num cores) when jobs > cores ->
        Printf.sprintf
          "env: %s artifact is oversubscribed (zkflow_jobs %g > ncores %g) — its timings are not an honest baseline"
          side jobs cores
        :: acc
      | _ -> acc
    in
    [] |> mismatch "git_commit" "cross-commit"
    |> mismatch "hostname" "cross-machine"
    (* Artifacts from before the kernel was recorded count as
       "unrecorded", so comparing one with a new artifact is noted. *)
    |> mismatch ~missing:"unrecorded" "sha256_kernel" "cross-kernel"
    |> dirty o "OLD" |> dirty n "NEW" |> quick
    |> oversubscribed o "OLD" |> oversubscribed n "NEW" |> List.rev
  | _ -> []

let diff ?(threshold = 0.25) ?(min_s = 0.05) ~old_json ~new_json () =
  match (rows_of old_json, rows_of new_json) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_rows, Ok new_rows ->
    let keyed rows =
      List.filter_map (fun r -> Option.map (fun k -> (k, r)) (row_key r)) rows
    in
    let old_k = keyed old_rows and new_k = keyed new_rows in
    let compared = ref 0 in
    let regressions = ref [] and improvements = ref [] in
    let notes = ref (List.rev (env_notes ~old_json ~new_json)) in
    List.iter
      (fun (key, old_row) ->
        match List.assoc_opt key new_k with
        | None -> notes := Printf.sprintf "row [%s] missing in NEW" key :: !notes
        | Some new_row ->
          let new_fields = numeric_fields new_row in
          List.iter
            (fun (field, old_v) ->
              match List.assoc_opt field new_fields with
              | None ->
                notes :=
                  Printf.sprintf "field %s of row [%s] missing in NEW" field key
                  :: !notes
              | Some new_v ->
                let timing = has_suffix field "_s" in
                (* [_bits] fields (soundness) are better when larger, so
                   the regression direction flips: losing bits regresses,
                   gaining them improves. Deterministic like cycle and
                   byte counts — no noise floor. *)
                let inverted = has_suffix field "_bits" in
                let counted =
                  timing || inverted || has_suffix field "_cycles"
                  || has_suffix field "_bytes"
                in
                if counted then begin
                  incr compared;
                  let ratio = if old_v = 0. then (if new_v = 0. then 1. else infinity) else new_v /. old_v in
                  let above_floor = (not timing) || old_v >= min_s || new_v >= min_s in
                  let change = { key; field; old_v; new_v; ratio } in
                  let worse =
                    if inverted then ratio < 1. /. (1. +. threshold)
                    else ratio > 1. +. threshold
                  in
                  let better =
                    if inverted then ratio > 1. +. threshold
                    else ratio < 1. /. (1. +. threshold)
                  in
                  if above_floor && worse then
                    regressions := change :: !regressions
                  else if above_floor && better then
                    improvements := change :: !improvements
                end)
            (numeric_fields old_row))
      old_k;
    List.iter
      (fun (key, _) ->
        if not (List.mem_assoc key old_k) then
          notes := Printf.sprintf "row [%s] only in NEW" key :: !notes)
      new_k;
    Ok
      {
        compared = !compared;
        regressions = List.rev !regressions;
        improvements = List.rev !improvements;
        notes = List.rev !notes;
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
