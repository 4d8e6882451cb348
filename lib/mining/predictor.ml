(** The false-positive predictor (Fig. 3): collects symptoms from a
    candidate, builds the attribute vector, and classifies it with the
    top-3 ensemble.

    Two stock configurations exist, matching the two tool versions:
    - {!original_config}: 16 attributes, classifiers LR + Random Tree +
      SVM (WAP v2.1);
    - {!extended_config}: 61 attributes, classifiers SVM + LR + Random
      Forest (WAPe). *)

type config = {
  mode : Attributes.mode;
  algorithms : Classifier.algorithm list;  (** the top-3 ensemble *)
  dynamic_symptoms : Symptom.dynamic_map;
}

let original_config =
  {
    mode = Attributes.Original;
    algorithms = [ Logistic.algorithm; Random_tree.algorithm; Svm.algorithm ];
    dynamic_symptoms = [];
  }

let extended_config =
  {
    mode = Attributes.Extended;
    algorithms = [ Svm.algorithm; Logistic.algorithm; Random_forest.algorithm ];
    dynamic_symptoms = [];
  }

let with_dynamic_symptoms config map =
  { config with dynamic_symptoms = config.dynamic_symptoms @ map }

(* Registered at startup, so [--stats] and [/metrics] show them even
   in a process that never trains. *)
let m_trainings = Wap_obs.Metrics.counter "mining.predictor.trainings"
let m_train_seconds = Wap_obs.Metrics.histogram "mining.predictor.train_seconds"

(* The models are a once-cell: trained at most once, by the first
   classification when the predictor is {!deferred}.  A bare [Lazy.t]
   will not do: forcing one from two domains at once raises
   [CamlinternalLazy.Undefined], and [Lazy.is_val] already answers
   [true] while another domain is still forcing.  So the trained models
   are published through an atomic, and training runs under [lock]. *)
type t = {
  config : config;
  lock : Mutex.t;
  trainer : unit -> Classifier.model list;  (** called once, under [lock] *)
  models : Classifier.model list option Atomic.t;
}

let fit ~seed (config : config) (d : Dataset.t) : Classifier.model list =
  Wap_obs.Trace.with_span ~cat:"mining" "predictor.train"
    ~args:[ ("instances", string_of_int (Dataset.size d)) ]
  @@ fun () ->
  if d.Dataset.mode <> config.mode then
    invalid_arg "Predictor.train: dataset attribute mode mismatch";
  let t0 = Wap_obs.Clock.now_ns () in
  let models = List.map (fun a -> a.Classifier.train ~seed d) config.algorithms in
  Wap_obs.Metrics.incr m_trainings;
  Wap_obs.Metrics.observe m_train_seconds
    (Wap_obs.Clock.ns_to_s (Wap_obs.Clock.elapsed_ns t0));
  models

(** A predictor that builds its data set and trains on the first
    classification. *)
let deferred ?(seed = 42) (config : config) (dataset : unit -> Dataset.t) : t =
  {
    config;
    lock = Mutex.create ();
    trainer = (fun () -> fit ~seed config (dataset ()));
    models = Atomic.make None;
  }

let models (p : t) : Classifier.model list =
  match Atomic.get p.models with
  | Some models -> models
  | None ->
      Mutex.protect p.lock (fun () ->
          match Atomic.get p.models with
          | Some models -> models
          | None ->
              let models = p.trainer () in
              Atomic.set p.models (Some models);
              models)

(** Train the ensemble on a labelled data set (must be in the same
    attribute mode as the config), now. *)
let train ?seed (config : config) (d : Dataset.t) : t =
  let p = deferred ?seed config (fun () -> d) in
  ignore (models p);
  p

(** Majority vote of the top-3 ensemble: is the candidate a false
    positive? *)
let is_false_positive (p : t) (c : Wap_taint.Trace.candidate) : bool =
  Wap_obs.Trace.with_span ~cat:"mining" "predictor.classify" @@ fun () ->
  let ev = Evidence.collect ~dynamic:p.config.dynamic_symptoms c in
  let x = Attributes.vector_of_evidence p.config.mode ev in
  let models = models p in
  let votes = List.length (List.filter (fun m -> Classifier.predict m x) models) in
  votes * 2 > List.length models

(** Ensemble confidence that the candidate is a false positive. *)
let fp_score (p : t) (c : Wap_taint.Trace.candidate) : float =
  let ev = Evidence.collect ~dynamic:p.config.dynamic_symptoms c in
  let x = Attributes.vector_of_evidence p.config.mode ev in
  match models p with
  | [] -> 0.5
  | models ->
      List.fold_left (fun acc m -> acc +. Classifier.score m x) 0.0 models
      /. float_of_int (List.length models)

(** The symptoms the predictor saw for a candidate — used to justify FP
    verdicts to the user (the "justifying false positives" box of
    Fig. 3). *)
let justification (p : t) (c : Wap_taint.Trace.candidate) : string list =
  Evidence.to_list (Evidence.collect ~dynamic:p.config.dynamic_symptoms c)

(** Split candidates into predicted false positives and predicted real
    vulnerabilities (the latter are handed to the code corrector). *)
let triage (p : t) (candidates : Wap_taint.Trace.candidate list) :
    Wap_taint.Trace.candidate list * Wap_taint.Trace.candidate list =
  List.partition (is_false_positive p) candidates
