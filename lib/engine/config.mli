(** The engine's environment gates, read in one place.

    Two gates tune a scan without touching the call site:

    - [WAP_JOBS] — worker-domain count for the {!Pool}; anything that
      is not an integer [>= 1] falls back to
      [Domain.recommended_domain_count ()].
    - [WAP_TRACE_OUT] — default Chrome-trace output path for tools
      that support [--trace-out].

    Each gate comes in two flavors: [default_*] reads the raw
    environment, and the resolver of the same base name applies the
    {e flag-beats-env} precedence — an explicit command-line flag (or
    request field) always wins over the environment, which wins over
    the built-in default.  All engine entry points and the CLI resolve
    through these, so the precedence is uniform tool-wide. *)

(** [WAP_JOBS] if it parses as an integer [>= 1], else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [WAP_TRACE_OUT] unless unset or empty. *)
val default_trace_out : unit -> string option

(** [jobs flag]: [max 1 flag] if given, else {!default_jobs}[ ()]. *)
val jobs : int option -> int

(** [trace_out flag]: [flag] if given, else {!default_trace_out}[ ()]. *)
val trace_out : string option -> string option
