(** Logistic regression with L2 regularization, trained by batch
    gradient descent.

    One of the original WAP's top-3 classifiers, kept in the new top 3
    (Table II). *)

type params = {
  learning_rate : float;
  iterations : int;
  l2 : float;
}

let default_params = { learning_rate = 0.5; iterations = 400; l2 = 0.001 }

type t = { weights : float array; bias : float }

let train ?(params = default_params) (d : Dataset.t) : t =
  match d.Dataset.instances with
  | [] -> { weights = [||]; bias = 0.0 }
  | first :: _ ->
      let dim = Array.length first.Dataset.features in
      let n = List.length d.Dataset.instances in
      let w = Array.make dim 0.0 in
      let b = ref 0.0 in
      let xs = Array.of_list d.Dataset.instances in
      (* Each instance visits only its non-zero attributes.  Sums start
         at +0.0 and adding [w *. 0.0] (±0.0) to a sum that is never
         -0.0 leaves it unchanged, so the weights are the same, to the
         last bit, as a loop over every attribute. *)
      let active =
        Array.map
          (fun (inst : Dataset.instance) ->
            let x = inst.Dataset.features in
            Array.of_list (List.filter (fun i -> x.(i) <> 0.0) (List.init dim Fun.id)))
          xs
      in
      for _ = 1 to params.iterations do
        let grad_w = Array.make dim 0.0 in
        let grad_b = ref 0.0 in
        (* plain loops, not closures, so the float accumulators stay
           unboxed *)
        for k = 0 to n - 1 do
          let inst = xs.(k) and on = active.(k) in
          let x = inst.Dataset.features in
          let y = if inst.Dataset.label then 1.0 else 0.0 in
          let z = ref 0.0 in
          for j = 0 to Array.length on - 1 do
            let i = on.(j) in
            z := !z +. (w.(i) *. x.(i))
          done;
          let p = Classifier.sigmoid (!z +. !b) in
          let err = p -. y in
          for j = 0 to Array.length on - 1 do
            let i = on.(j) in
            grad_w.(i) <- grad_w.(i) +. (err *. x.(i))
          done;
          grad_b := !grad_b +. err
        done;
        let nf = float_of_int n in
        for i = 0 to dim - 1 do
          w.(i) <-
            w.(i) -. (params.learning_rate *. ((grad_w.(i) /. nf) +. (params.l2 *. w.(i))))
        done;
        b := !b -. (params.learning_rate *. (!grad_b /. nf))
      done;
      { weights = w; bias = !b }

let score (m : t) x = Classifier.sigmoid (Classifier.dot m.weights x +. m.bias)
let predict (m : t) x = score m x >= 0.5

let algorithm : Classifier.algorithm =
  {
    algo_name = "Logistic Regression";
    train =
      (fun ~seed:_ d ->
        let m = train d in
        { Classifier.name = "Logistic Regression"; predict = predict m; score = score m });
  }
