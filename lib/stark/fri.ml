module F = Zkflow_field.Babybear
module Fp2 = Zkflow_field.Fp2
module Domain = Zkflow_field.Domain
module Tree = Zkflow_merkle.Tree
module Proof = Zkflow_merkle.Proof
module T = Zkflow_hash.Transcript
module D = Zkflow_hash.Digest32
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs

let node = Zkflow_hash.Sha256.digest64

let m_fold_rounds = Obs.Metric.counter "fri.fold_rounds"

type query_step = {
  pos : Fp2.t;
  neg : Fp2.t;
  pos_path : Proof.t;
  neg_path : Proof.t;
}

type query = { index : int; steps : query_step array }

type proof = {
  layer_roots : D.t array;
  final : Fp2.t array;
  queries : query array;
}

let final_size = 16

let challenge_fp2 transcript ~label =
  Fp2.of_digest_prefix (D.unsafe_to_bytes (T.challenge_digest transcript ~label))

(* Evaluate the one folding step at position i of a layer of [size]
   values over the coset shift·⟨ω⟩. *)
let fold_pair ~zeta ~inv2 ~x_inv pos neg =
  let even = Fp2.mul_base (Fp2.add pos neg) inv2 in
  let odd = Fp2.mul_base (Fp2.mul zeta (Fp2.sub pos neg)) (F.mul inv2 x_inv) in
  Fp2.add even odd

let absorb_final transcript final =
  Array.iteri
    (fun i v ->
      T.absorb_bytes transcript ~label:(Printf.sprintf "fri.final.%d" i) (Fp2.to_bytes v))
    final

(* Lagrange interpolation over base-field abscissae with Fp2 values;
   returns coefficients (length = #points). O(k²), used only on the
   final layer. *)
let interpolate_fp2 xs ys =
  let k = Array.length xs in
  let coeffs = Array.make k Fp2.zero in
  for i = 0 to k - 1 do
    (* basis_i(x) = Π_{j≠i} (x − x_j) / (x_i − x_j), built as base-field
       coefficient vector then scaled by y_i / denom. *)
    let basis = Array.make k F.zero in
    basis.(0) <- F.one;
    let deg = ref 0 in
    let denom = ref F.one in
    for j = 0 to k - 1 do
      if j <> i then begin
        denom := F.mul !denom (F.sub xs.(i) xs.(j));
        (* multiply basis by (x − x_j) *)
        for d = !deg + 1 downto 1 do
          basis.(d) <- F.sub basis.(d - 1) (F.mul xs.(j) basis.(d))
        done;
        basis.(0) <- F.mul (F.neg xs.(j)) basis.(0);
        incr deg
      end
    done;
    let scale = Fp2.mul_base ys.(i) (F.inv !denom) in
    for d = 0 to k - 1 do
      coeffs.(d) <- Fp2.add coeffs.(d) (Fp2.mul_base scale basis.(d))
    done
  done;
  coeffs

let domain_elements ~shift ~log_size =
  Domain.elements (Domain.coset ~log_size ~shift)

let layer_count m0 =
  let rec go m acc = if m <= final_size then acc else go (m / 2) (acc + 1) in
  go m0 0

(* The degree bound after l folds: each fold halves (rounding up). *)
let bound_after degree_bound l =
  let rec go b l = if l = 0 then b else go ((b + 1) / 2) (l - 1) in
  max 1 (go degree_bound l)

let prove ~transcript ~domain ~degree_bound ~queries values =
  let m0 = domain.Domain.size in
  if Array.length values <> m0 then invalid_arg "Fri.prove: size mismatch";
  if m0 <= final_size then invalid_arg "Fri.prove: domain too small";
  if degree_bound <= 0 || degree_bound > m0 then invalid_arg "Fri.prove: bad degree bound";
  let layers = ref [] in
  let v = ref values and shift = ref domain.Domain.shift and size = ref m0 in
  let log = ref domain.Domain.log_size in
  while !size > final_size do
    let t_fold = Obs.Span.start () in
    let tree =
      Tree.of_leaves ~node
        (Zkflow_util.Column.of_array (Pool.map_array ~min_chunk:2048 Fp2.to_bytes !v))
    in
    T.absorb_digest transcript ~label:"fri.layer" (Tree.root tree);
    let zeta = challenge_fp2 transcript ~label:"fri.zeta" in
    let half = !size / 2 in
    let xs = domain_elements ~shift:!shift ~log_size:!log in
    let x_invs = F.batch_inv (Array.sub xs 0 half) in
    let inv2 = F.inv 2 in
    let cur = !v in
    let folded =
      Pool.init_array ~min_chunk:2048 half (fun i ->
          fold_pair ~zeta ~inv2 ~x_inv:x_invs.(i) cur.(i) cur.(i + half))
    in
    layers := (tree, !v) :: !layers;
    v := folded;
    shift := F.mul !shift !shift;
    if t_fold <> 0 then begin
      Obs.Metric.add m_fold_rounds 1;
      Obs.Span.finish "fri.fold" ~args:[ ("size", !size) ] t_fold
    end;
    size := half;
    log := !log - 1
  done;
  let final = !v in
  absorb_final transcript final;
  let layer_list = List.rev !layers in
  let idx = T.challenge_ints transcript ~label:"fri.query" ~bound:(m0 / 2) ~count:queries in
  let queries =
    Array.map
      (fun i0 ->
        let steps =
          List.mapi
            (fun _l (tree, vals) ->
              let m = Array.length vals in
              let i = i0 mod (m / 2) in
              {
                pos = vals.(i);
                neg = vals.(i + (m / 2));
                pos_path = Tree.prove tree i;
                neg_path = Tree.prove tree (i + (m / 2));
              })
            layer_list
        in
        { index = i0; steps = Array.of_list steps })
      idx
  in
  {
    layer_roots = Array.of_list (List.map (fun (t, _) -> Tree.root t) layer_list);
    final;
    queries;
  }

let layer0_root proof =
  if Array.length proof.layer_roots = 0 then invalid_arg "Fri.layer0_root: no layers";
  proof.layer_roots.(0)

let query_layer0 q =
  if Array.length q.steps = 0 then invalid_arg "Fri.query_layer0: no steps";
  let s = q.steps.(0) in
  ((s.pos_path.Proof.index, s.pos), (s.neg_path.Proof.index, s.neg))

let ( let* ) = Result.bind

let verify ~transcript ~domain ~degree_bound ~queries proof =
  let m0 = domain.Domain.size in
  if m0 <= final_size then Error "fri: domain too small"
  else begin
    let expected_layers = layer_count m0 in
    if Array.length proof.layer_roots <> expected_layers then
      Error "fri: wrong layer count"
    else begin
      (* Re-derive challenges in the prover's order. *)
      let zetas =
        Array.map
          (fun root ->
            T.absorb_digest transcript ~label:"fri.layer" root;
            challenge_fp2 transcript ~label:"fri.zeta")
          proof.layer_roots
      in
      absorb_final transcript proof.final;
      let idx =
        T.challenge_ints transcript ~label:"fri.query" ~bound:(m0 / 2) ~count:queries
      in
      if Array.length proof.queries <> queries then Error "fri: wrong query count"
      else begin
        (* Final layer degree check. *)
        let final_m = m0 lsr expected_layers in
        if Array.length proof.final <> final_m then Error "fri: final layer size"
        else begin
          let final_shift = ref domain.Domain.shift in
          for _ = 1 to expected_layers do
            final_shift := F.mul !final_shift !final_shift
          done;
          let final_log = domain.Domain.log_size - expected_layers in
          let xs_final = domain_elements ~shift:!final_shift ~log_size:final_log in
          let coeffs = interpolate_fp2 xs_final proof.final in
          let fbound = bound_after degree_bound expected_layers in
          let degree_ok = ref true in
          Array.iteri
            (fun d c -> if d >= fbound && not (Fp2.equal c Fp2.zero) then degree_ok := false)
            coeffs;
          if not !degree_ok then Error "fri: final layer exceeds degree bound"
          else begin
            (* Per-query folding walk. *)
            let inv2 = F.inv 2 in
            let rec check_queries k =
              if k = Array.length proof.queries then Ok ()
              else begin
                let q = proof.queries.(k) in
                let* () =
                  if q.index <> idx.(k) then Error "fri: unsampled query index" else Ok ()
                in
                if Array.length q.steps <> expected_layers then
                  Error "fri: query step count"
                else begin
                  let rec walk l m shift log carried =
                    if l = expected_layers then begin
                      (* carried must equal the final layer at this position *)
                      let i = q.index mod m in
                      match carried with
                      | Some v when Fp2.equal v proof.final.(i) -> Ok ()
                      | Some _ -> Error "fri: final layer mismatch"
                      | None -> Error "fri: empty walk"
                    end
                    else begin
                      let s = q.steps.(l) in
                      let half = m / 2 in
                      let i = q.index mod half in
                      let* () =
                        if
                          s.pos_path.Proof.index = i
                          && s.neg_path.Proof.index = i + half
                          && Proof.verify_data ~node ~root:proof.layer_roots.(l)
                               (Fp2.to_bytes s.pos) s.pos_path
                          && Proof.verify_data ~node ~root:proof.layer_roots.(l)
                               (Fp2.to_bytes s.neg) s.neg_path
                        then Ok ()
                        else Error "fri: bad layer opening"
                      in
                      (* The previous fold landed at position q.index mod m,
                         which is the pos cell when < half, else the neg. *)
                      let* () =
                        match carried with
                        | None -> Ok ()
                        | Some v ->
                          let expect = if q.index mod m < half then s.pos else s.neg in
                          if Fp2.equal v expect then Ok ()
                          else Error "fri: fold chain broken"
                      in
                      let x = F.mul shift (F.pow (F.root_of_unity log) i) in
                      let folded =
                        fold_pair ~zeta:zetas.(l) ~inv2 ~x_inv:(F.inv x) s.pos s.neg
                      in
                      walk (l + 1) half (F.mul shift shift) (log - 1) (Some folded)
                    end
                  in
                  let* () =
                    walk 0 m0 domain.Domain.shift domain.Domain.log_size None
                  in
                  check_queries (k + 1)
                end
              end
            in
            check_queries 0
          end
        end
      end
    end
  end
