module F = Zkflow_field.Babybear
module Fp2 = Zkflow_field.Fp2
module Ntt = Zkflow_field.Ntt
module Domain = Zkflow_field.Domain
module Tree = Zkflow_merkle.Tree
module MProof = Zkflow_merkle.Proof
module T = Zkflow_hash.Transcript
module D = Zkflow_hash.Digest32
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs

type trace_opening = { index : int; leaf : bytes; path : MProof.t }

type proof = {
  trace_length : int;
  blowup : int;
  trace_root : D.t;
  fri : Fri.proof;
  trace_openings : trace_opening array array;
}

let default_queries = 30

let ( let* ) = Result.bind

let next_pow2 n =
  let rec go k = if k >= n then k else go (2 * k) in
  go 1

let blowup_for air = max 4 (next_pow2 (air.Air.transition_degree + 1))

let degree_bound air ~n =
  let d = air.Air.transition_degree in
  next_pow2 (max ((d - 1) * (n - 1)) (n - 1) + 1)

let leaf_of_row width values i =
  let b = Bytes.create (4 * width) in
  Array.iteri
    (fun c col -> Bytes.set_int32_le b (4 * c) (Int32.of_int col.(i)))
    values;
  ignore width;
  b

let row_of_leaf width b =
  if Bytes.length b <> 4 * width then Error "stark: bad trace leaf width"
  else begin
    let row = Array.make width F.zero in
    let ok = ref true in
    for c = 0 to width - 1 do
      let v = Int32.to_int (Bytes.get_int32_le b (4 * c)) in
      if v < 0 || v >= F.p then ok := false else row.(c) <- v
    done;
    if !ok then Ok row else Error "stark: non-canonical trace value"
  end

let absorb_statement transcript air ~n ~blowup ~queries =
  T.absorb_bytes transcript ~label:"air.name" (Bytes.of_string air.Air.name);
  T.absorb_int transcript ~label:"air.width" air.Air.width;
  T.absorb_int transcript ~label:"air.degree" air.Air.transition_degree;
  T.absorb_int transcript ~label:"n" n;
  T.absorb_int transcript ~label:"blowup" blowup;
  T.absorb_int transcript ~label:"queries" queries;
  List.iter
    (fun (row, col, v) ->
      T.absorb_int transcript ~label:"bd.row" row;
      T.absorb_int transcript ~label:"bd.col" col;
      T.absorb_int transcript ~label:"bd.val" v)
    (Air.resolve_boundary air ~trace_length:n);
  List.iter
    (fun (col, values) ->
      T.absorb_int transcript ~label:"pub.col" col;
      let buf = Buffer.create (4 * Array.length values) in
      Array.iter (fun v -> Buffer.add_int32_be buf (Int32.of_int v)) values;
      T.absorb_bytes transcript ~label:"pub.values" (Buffer.to_bytes buf))
    air.Air.public_columns

let challenge_fp2 transcript ~label =
  Fp2.of_digest_prefix (D.unsafe_to_bytes (T.challenge_digest transcript ~label))

let draw_randomizers transcript air =
  let gammas =
    Array.init air.Air.constraint_count (fun j ->
        challenge_fp2 transcript ~label:(Printf.sprintf "gamma.%d" j))
  in
  let deltas =
    Array.init
      (List.length air.Air.boundary)
      (fun b -> challenge_fp2 transcript ~label:(Printf.sprintf "delta.%d" b))
  in
  (gammas, deltas)

(* Composition value at one LDE point, given the trace rows at x and
   g·x. Shared between prover (all points) and verifier (queried
   points). *)
let composition_at air ~gammas ~deltas ~boundary ~omega ~n ~x row row_next =
  let cs = air.Air.transition row row_next in
  (* Z_transition(x) = (x^n − 1) / (x − ω^{n−1}) *)
  let h_last = F.pow omega (n - 1) in
  let zt = F.div (F.sub (F.pow x n) F.one) (F.sub x h_last) in
  let zt_inv = F.inv zt in
  let acc = ref Fp2.zero in
  Array.iteri
    (fun j c -> acc := Fp2.add !acc (Fp2.mul_base gammas.(j) (F.mul c zt_inv)))
    cs;
  List.iteri
    (fun b (r, c, v) ->
      let quotient = F.div (F.sub row.(c) v) (F.sub x (F.pow omega r)) in
      acc := Fp2.add !acc (Fp2.mul_base deltas.(b) quotient))
    boundary;
  !acc

let prove ?(queries = default_queries) air trace =
  let n = Array.length trace in
  if n < 8 || n land (n - 1) <> 0 then
    Error "stark: trace length must be a power of two >= 8"
  else begin
    let* () = Air.check_trace air trace in
    let t_prove = Obs.Span.start () in
    let blowup = blowup_for air in
    let m = blowup * n in
    let lde = Domain.coset ~log_size:(Ntt.log2 m) ~shift:F.generator in
    let omega = F.root_of_unity (Ntt.log2 n) in
    (* Interpolate columns over the trace subgroup, extend to the LDE
       coset. *)
    let t_lde = Obs.Span.start () in
    let values =
      (* Columns extend independently; each NTT works on its own copy. *)
      Pool.init_array ~min_chunk:1 air.Air.width (fun c ->
          let col = Array.init n (fun i -> trace.(i).(c)) in
          let coeffs = Ntt.inverse col in
          let padded = Array.append coeffs (Array.make (m - n) F.zero) in
          Ntt.forward_coset ~shift:F.generator padded)
    in
    if t_lde <> 0 then
      Obs.Span.finish "stark.lde" ~args:[ ("columns", air.Air.width); ("m", m) ] t_lde;
    let t_commit = Obs.Span.start () in
    let leaves = Pool.init_array ~min_chunk:1024 m (leaf_of_row air.Air.width values) in
    let tree =
      Tree.of_leaves ~node:Zkflow_hash.Sha256.digest64 (Zkflow_util.Column.of_array leaves)
    in
    if t_commit <> 0 then Obs.Span.finish "stark.commit" ~args:[ ("rows", m) ] t_commit;
    let transcript = T.create ~domain:"zkflow.stark.v1" in
    absorb_statement transcript air ~n ~blowup ~queries;
    T.absorb_digest transcript ~label:"trace_root" (Tree.root tree);
    let gammas, deltas = draw_randomizers transcript air in
    let boundary = Air.resolve_boundary air ~trace_length:n in
    let lde_elements = Domain.elements lde in
    let t_comp = Obs.Span.start () in
    let comp =
      Pool.init_array ~min_chunk:256 m (fun i ->
          let row = Array.init air.Air.width (fun c -> values.(c).(i)) in
          let next = Array.init air.Air.width (fun c -> values.(c).((i + blowup) mod m)) in
          composition_at air ~gammas ~deltas ~boundary ~omega ~n
            ~x:lde_elements.(i) row next)
    in
    if t_comp <> 0 then Obs.Span.finish "stark.composition" ~args:[ ("rows", m) ] t_comp;
    let dbound = degree_bound air ~n in
    let t_fri = Obs.Span.start () in
    let fri = Fri.prove ~transcript ~domain:lde ~degree_bound:dbound ~queries comp in
    if t_fri <> 0 then Obs.Span.finish "stark.fri" t_fri;
    (* Trace openings for each query's two composition points. *)
    let t_open = Obs.Span.start () in
    let open_at i = { index = i; leaf = leaves.(i); path = Tree.prove tree i } in
    let trace_openings =
      Array.map
        (fun (q : Fri.query) ->
          let i0 = q.Fri.index in
          let half = m / 2 in
          [|
            open_at i0;
            open_at ((i0 + blowup) mod m);
            open_at (i0 + half);
            open_at ((i0 + half + blowup) mod m);
          |])
        fri.Fri.queries
    in
    if t_open <> 0 then Obs.Span.finish "stark.openings" t_open;
    if t_prove <> 0 then Obs.Span.finish "stark.prove" ~args:[ ("n", n) ] t_prove;
    Ok { trace_length = n; blowup; trace_root = Tree.root tree; fri; trace_openings }
  end

let verify ?(queries = default_queries) air proof =
  let n = proof.trace_length in
  let* () =
    if n < 8 || n land (n - 1) <> 0 then Error "stark: bad trace length" else Ok ()
  in
  let* () =
    if proof.blowup <> blowup_for air then Error "stark: wrong blowup" else Ok ()
  in
  let m = proof.blowup * n in
  let lde = Domain.coset ~log_size:(Ntt.log2 m) ~shift:F.generator in
  let omega = F.root_of_unity (Ntt.log2 n) in
  let transcript = T.create ~domain:"zkflow.stark.v1" in
  absorb_statement transcript air ~n ~blowup:proof.blowup ~queries;
  T.absorb_digest transcript ~label:"trace_root" proof.trace_root;
  let gammas, deltas = draw_randomizers transcript air in
  let boundary = Air.resolve_boundary air ~trace_length:n in
  let dbound = degree_bound air ~n in
  let* () = Fri.verify ~transcript ~domain:lde ~degree_bound:dbound ~queries proof.fri in
  let* () =
    if Array.length proof.trace_openings = Array.length proof.fri.Fri.queries then Ok ()
    else Error "stark: opening count mismatch"
  in
  (* Consistency: the committed composition (FRI layer 0) must equal the
     value recomputed from the opened trace rows at both query points. *)
  let check_opening (o : trace_opening) expect_index =
    if o.index <> expect_index then Error "stark: opening index"
    else if o.path.MProof.index <> o.index then Error "stark: path index"
    else if
      not
        (MProof.verify_data ~node:Zkflow_hash.Sha256.digest64 ~root:proof.trace_root
           o.leaf o.path)
    then
      Error "stark: trace opening does not authenticate"
    else row_of_leaf air.Air.width o.leaf
  in
  let lde_element i = Domain.element lde i in
  (* Public columns: interpolate once; the committed column must agree
     at every opened point (Schwartz–Zippel over the FRI queries). *)
  let* public_coeffs =
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | (col, values) :: rest ->
        if col < 0 || col >= air.Air.width then Error "stark: public column index"
        else if Array.length values <> n then Error "stark: public column length"
        else build ((col, Ntt.inverse values) :: acc) rest
    in
    build [] air.Air.public_columns
  in
  let check_public_columns row x =
    List.for_all
      (fun (col, coeffs) ->
        let acc = ref F.zero in
        for i = Array.length coeffs - 1 downto 0 do
          acc := F.add (F.mul !acc x) coeffs.(i)
        done;
        F.equal row.(col) !acc)
      public_coeffs
  in
  let rec go k =
    if k = Array.length proof.fri.Fri.queries then Ok ()
    else begin
      let q = proof.fri.Fri.queries.(k) in
      let os = proof.trace_openings.(k) in
      let* () = if Array.length os = 4 then Ok () else Error "stark: need 4 openings" in
      let i0 = q.Fri.index in
      let half = m / 2 in
      let* row_pos = check_opening os.(0) i0 in
      let* row_pos_next = check_opening os.(1) ((i0 + proof.blowup) mod m) in
      let* row_neg = check_opening os.(2) (i0 + half) in
      let* row_neg_next = check_opening os.(3) ((i0 + half + proof.blowup) mod m) in
      let (pi, pos_v), (ni, neg_v) = Fri.query_layer0 q in
      let* () =
        if pi = i0 && ni = i0 + half then Ok () else Error "stark: fri index mismatch"
      in
      let c_pos =
        composition_at air ~gammas ~deltas ~boundary ~omega ~n ~x:(lde_element i0)
          row_pos row_pos_next
      in
      let c_neg =
        composition_at air ~gammas ~deltas ~boundary ~omega ~n
          ~x:(lde_element (i0 + half)) row_neg row_neg_next
      in
      let* () =
        if Fp2.equal c_pos pos_v then Ok ()
        else Error "stark: composition mismatch at query point"
      in
      let* () =
        if Fp2.equal c_neg neg_v then Ok ()
        else Error "stark: composition mismatch at mirrored point"
      in
      let* () =
        if
          check_public_columns row_pos (lde_element i0)
          && check_public_columns row_pos_next (lde_element ((i0 + proof.blowup) mod m))
          && check_public_columns row_neg (lde_element (i0 + half))
          && check_public_columns row_neg_next
               (lde_element ((i0 + half + proof.blowup) mod m))
        then Ok ()
        else Error "stark: committed column deviates from public input"
      in
      go (k + 1)
    end
  in
  go 0

let opening_size (o : trace_opening) =
  Bytes.length o.leaf + (32 * Array.length o.path.MProof.siblings) + 8

let proof_size_bytes p =
  let fri_size =
    (32 * Array.length p.fri.Fri.layer_roots)
    + (8 * Array.length p.fri.Fri.final)
    + Array.fold_left
        (fun acc (q : Fri.query) ->
          acc
          + Array.fold_left
              (fun acc (s : Fri.query_step) ->
                acc + 16
                + (32 * Array.length s.Fri.pos_path.MProof.siblings)
                + (32 * Array.length s.Fri.neg_path.MProof.siblings))
              8 q.Fri.steps)
        0 p.fri.Fri.queries
  in
  32 + 16 + fri_size
  + Array.fold_left
      (fun acc os -> Array.fold_left (fun a o -> a + opening_size o) acc os)
      0 p.trace_openings
