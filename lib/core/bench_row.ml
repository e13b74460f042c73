module Jsonx = Zkflow_util.Jsonx

type better = Lower | Higher

type metric = { value : float; unit : string; better : better }

type axis = Int of int | Str of string

type row = {
  config : (string * axis) list;
  metrics : (string * metric) list;
  phases : (string * (int * float)) list;
}

type artifact = { env : (string * Jsonx.t) list; rows : row list }

let schema = "zkflow-bench/v1"

let seconds value = { value; unit = "s"; better = Lower }
let count n = { value = float_of_int n; unit = "count"; better = Lower }
let bytes n = { value = float_of_int n; unit = "bytes"; better = Lower }
let bits value = { value; unit = "bits"; better = Higher }

let axis_string = function Int n -> string_of_int n | Str s -> s

let key r =
  String.concat " " (List.map (fun (name, v) -> name ^ "=" ^ axis_string v) r.config)

let metric r name = Option.map (fun m -> m.value) (List.assoc_opt name r.metrics)

(* ---- writer ------------------------------------------------------ *)

let obj f l = Jsonx.Obj (List.map (fun (name, v) -> (name, f v)) l)
let num n = Jsonx.Num (float_of_int n)

let row_json r =
  Jsonx.Obj
    [
      ("config", obj (function Int n -> num n | Str s -> Jsonx.Str s) r.config);
      ( "metrics",
        obj
          (fun m ->
            Jsonx.Obj
              [
                ("value", Jsonx.Num m.value);
                ("unit", Jsonx.Str m.unit);
                ("better", Jsonx.Str (match m.better with Lower -> "lower" | Higher -> "higher"));
              ])
          r.metrics );
      ( "phases",
        obj (fun (c, t) -> Jsonx.Obj [ ("count", num c); ("total_s", Jsonx.Num t) ]) r.phases );
    ]

let to_json a =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str schema);
      ("env", Jsonx.Obj a.env);
      ("rows", Jsonx.Arr (List.map row_json a.rows));
    ]

let write path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Jsonx.to_string (to_json a));
      output_char oc '\n')

(* ---- reader ------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec all_ok f acc = function
  | [] -> Ok (List.rev acc)
  | x :: rest ->
    let* y = f x in
    all_ok f (y :: acc) rest

let axis_of = function
  | Jsonx.Num f when Float.is_integer f -> Some (Int (int_of_float f))
  | Jsonx.Str s -> Some (Str s)
  | _ -> None

let metric_of m =
  match (Jsonx.member "value" m, Jsonx.member "unit" m, Jsonx.member "better" m) with
  | Some (Jsonx.Num value), Some (Jsonx.Str unit), Some (Jsonx.Str "lower") ->
    Some { value; unit; better = Lower }
  | Some (Jsonx.Num value), Some (Jsonx.Str unit), Some (Jsonx.Str "higher") ->
    Some { value; unit; better = Higher }
  | _ -> None

let phase_of p =
  match (Jsonx.member "count" p, Jsonx.member "total_s" p) with
  | Some (Jsonx.Num c), Some (Jsonx.Num t) -> Some (int_of_float c, t)
  | _ -> None

let row_of (i, r) =
  let block name what f =
    match Jsonx.member name r with
    | Some (Jsonx.Obj members) ->
      all_ok
        (fun (k, v) ->
          match f v with
          | Some x -> Ok (k, x)
          | None -> Error (Printf.sprintf "row %d: %s %S is malformed" i what k))
        [] members
    | _ -> Error (Printf.sprintf "row %d has no %S object" i name)
  in
  let* config = block "config" "config axis" axis_of in
  let* metrics = block "metrics" "metric" metric_of in
  let* phases = block "phases" "phase" phase_of in
  if config = [] then Error (Printf.sprintf "row %d has an empty \"config\"" i)
  else Ok { config; metrics; phases }

let of_json doc =
  let* () =
    match Jsonx.member "schema" doc with
    | Some (Jsonx.Str s) when s = schema -> Ok ()
    | Some (Jsonx.Str s) -> Error (Printf.sprintf "schema %S is not %S" s schema)
    | _ -> Error (Printf.sprintf "no \"schema\" tag: not a %s artifact" schema)
  in
  let* env =
    match Jsonx.member "env" doc with
    | Some (Jsonx.Obj env) -> Ok env
    | _ -> Error "no \"env\" object"
  in
  match Jsonx.member "rows" doc with
  | Some (Jsonx.Arr rows) ->
    let* rows = all_ok row_of [] (List.mapi (fun i r -> (i, r)) rows) in
    Ok { env; rows }
  | _ -> Error "no \"rows\" array"
