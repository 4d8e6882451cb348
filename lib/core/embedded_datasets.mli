(** The default training data sets, built at compile time by
    [gen/gen_datasets.exe] with {!Training.dataset_for} and embedded as
    CSV ({!Wap_mining.Dataset.to_csv}), so a process parses them
    instead of rebuilding them. *)

(** The seed the sets were built with: [Wap_corpus.Corpus.default_seed]. *)
val seed : int

(** [Dataset.to_csv (Training.dataset_for ~seed v)]. *)
val csv : Version.t -> string
