(** The false-positive predictor (Fig. 3): collects symptoms from a
    candidate, builds the attribute vector, and classifies it with the
    top-3 ensemble. *)

type config = {
  mode : Attributes.mode;
  algorithms : Classifier.algorithm list;  (** the top-3 ensemble *)
  dynamic_symptoms : Symptom.dynamic_map;
}

(** WAP v2.1: 16 attributes, Logistic Regression + Random Tree + SVM. *)
val original_config : config

(** WAPe: 61 attributes, SVM + Logistic Regression + Random Forest. *)
val extended_config : config

(** Extend a config with weapon-supplied dynamic symptoms. *)
val with_dynamic_symptoms : config -> Symptom.dynamic_map -> config

type t

(** Train the ensemble on a labelled data set, now.

    @raise Invalid_argument when the data set's attribute mode does not
    match the config. *)
val train : ?seed:int -> config -> Dataset.t -> t

(** [deferred config dataset] is the predictor {!train} would build
    from [dataset ()], trained on the first {!is_false_positive} or
    {!fp_score} call instead of now — a process that never classifies
    never builds the data set.  Training happens once, whichever and
    however many domains classify; the [Invalid_argument] of a mode
    mismatch surfaces at that first call.

    Every training, eager or deferred, emits a [predictor.train] trace
    span and records into the [mining.predictor.trainings] counter and
    the [mining.predictor.train_seconds] histogram. *)
val deferred : ?seed:int -> config -> (unit -> Dataset.t) -> t

(** Majority vote of the ensemble: is the candidate a false positive? *)
val is_false_positive : t -> Wap_taint.Trace.candidate -> bool

(** Mean ensemble confidence that the candidate is a false positive. *)
val fp_score : t -> Wap_taint.Trace.candidate -> float

(** The symptoms the predictor saw for a candidate — used to justify FP
    verdicts to the user (the "justifying false positives" box of
    Fig. 3). *)
val justification : t -> Wap_taint.Trace.candidate -> string list

(** Split candidates into (predicted false positives, predicted real
    vulnerabilities); the latter go to the code corrector. *)
val triage :
  t ->
  Wap_taint.Trace.candidate list ->
  Wap_taint.Trace.candidate list * Wap_taint.Trace.candidate list
