(** CART-style decision trees over binary attributes.

    Shared by {!Random_tree} (a single tree choosing among a random
    attribute subset at each split, as in WEKA's RandomTree — one of the
    original WAP's classifiers) and {!Random_forest} (bagged trees, one
    of the new top 3). *)

type node =
  | Leaf of float  (** probability of the FP class *)
  | Split of int * node * node  (** attribute index; zero branch, one branch *)

type t = { root : node }

type params = {
  max_depth : int;
  min_samples : int;
  feature_subset : int option;
      (** when set, each split considers only this many randomly chosen
          attributes — [None] examines all (plain CART) *)
}

let default_params = { max_depth = 12; min_samples = 2; feature_subset = None }

(* A tree grows over index slices of one instance array: a node owns
   [idx.(lo) .. idx.(hi - 1)], and its split partitions that slice in
   place, stably, zeros first — each child sees its instances in their
   original order, as a list partition would give them. *)
type work = {
  xs : Dataset.instance array;
  idx : int array;
  scratch : int array;  (** holds the one branch during a partition *)
}

let gini ~n ~fp =
  if n = 0 then 0.0
  else
    let p = float_of_int fp /. float_of_int n in
    2.0 *. p *. (1.0 -. p)

let fp_fraction ~n ~fp = if n = 0 then 0.5 else float_of_int fp /. float_of_int n

let count_fp w lo hi =
  let fp = ref 0 in
  for k = lo to hi - 1 do
    if w.xs.(w.idx.(k)).Dataset.label then incr fp
  done;
  !fp

(* (instances, false positives) of the slice on the zero branch of [a] *)
let count_zeros w a lo hi =
  let nz = ref 0 and fz = ref 0 in
  for k = lo to hi - 1 do
    let inst = w.xs.(w.idx.(k)) in
    if inst.Dataset.features.(a) <= 0.5 then begin
      incr nz;
      if inst.Dataset.label then incr fz
    end
  done;
  (!nz, !fz)

(* stable partition of the slice on [a]; returns where the one branch starts *)
let partition w a lo hi =
  let z = ref lo and o = ref lo in
  for k = lo to hi - 1 do
    let i = w.idx.(k) in
    if w.xs.(i).Dataset.features.(a) <= 0.5 then begin
      w.idx.(!z) <- i;
      incr z
    end
    else begin
      w.scratch.(!o) <- i;
      incr o
    end
  done;
  Array.blit w.scratch lo w.idx !z (!o - lo);
  !z

let candidate_features ~params ~rng dim =
  match params.feature_subset with
  | None -> List.init dim Fun.id
  | Some k ->
      let k = min k dim in
      (* sample k distinct indices *)
      let chosen = Hashtbl.create k in
      let rec draw n =
        if n = 0 then ()
        else
          let i = Random.State.int rng dim in
          if Hashtbl.mem chosen i then draw n
          else begin
            Hashtbl.add chosen i ();
            draw (n - 1)
          end
      in
      draw k;
      Hashtbl.fold (fun i () acc -> i :: acc) chosen []

let rec build ~params ~rng w depth lo hi : node =
  let n = hi - lo in
  let fp = count_fp w lo hi in
  let impurity = gini ~n ~fp in
  if depth >= params.max_depth || n < params.min_samples || impurity = 0.0 then
    Leaf (fp_fraction ~n ~fp)
  else
    let dim = Array.length w.xs.(w.idx.(lo)).Dataset.features in
    let best = ref None in
    List.iter
      (fun a ->
        let nz, fz = count_zeros w a lo hi in
        let no = n - nz in
        if nz > 0 && no > 0 then begin
          let weighted =
            ((float_of_int nz *. gini ~n:nz ~fp:fz)
            +. (float_of_int no *. gini ~n:no ~fp:(fp - fz)))
            /. float_of_int n
          in
          let gain = impurity -. weighted in
          match !best with
          | Some (g, _) when g >= gain -> ()
          | _ -> best := Some (gain, a)
        end)
      (candidate_features ~params ~rng dim);
    match !best with
    | None -> Leaf (fp_fraction ~n ~fp)
    | Some (_, a) ->
        let mid = partition w a lo hi in
        (* zero-gain splits are allowed (XOR-style interactions only
           pay off one level deeper); max_depth bounds the tree.  Both
           children draw from [rng]: the one branch grows first, the
           order the trees were always built in. *)
        let one = build ~params ~rng w (depth + 1) mid hi in
        let zero = build ~params ~rng w (depth + 1) lo mid in
        Split (a, zero, one)

let train ?(params = default_params) ~seed (d : Dataset.t) : t =
  let rng = Random.State.make [| seed; 104729 |] in
  let xs = Array.of_list d.Dataset.instances in
  let n = Array.length xs in
  let w = { xs; idx = Array.init n Fun.id; scratch = Array.make n 0 } in
  { root = build ~params ~rng w 0 0 n }

let rec score_node node x =
  match node with
  | Leaf p -> p
  | Split (idx, zero, one) ->
      if x.(idx) <= 0.5 then score_node zero x else score_node one x

let score (m : t) x = score_node m.root x
let predict (m : t) x = score m x >= 0.5

let algorithm : Classifier.algorithm =
  {
    algo_name = "Decision Tree";
    train =
      (fun ~seed d ->
        let m = train ~seed d in
        { Classifier.name = "Decision Tree"; predict = predict m; score = score m });
  }

(** Depth and node count, used by tests. *)
let rec depth_of = function
  | Leaf _ -> 0
  | Split (_, a, b) -> 1 + max (depth_of a) (depth_of b)

let rec nodes_of = function Leaf _ -> 1 | Split (_, a, b) -> 1 + nodes_of a + nodes_of b
