(** Machine-readable export of analysis results (JSON), for integration
    with editors, CI pipelines and issue trackers. *)

module J = Wap_report.Json

let loc_to_json (l : Wap_php.Loc.t) : J.t =
  J.Obj [ ("file", J.Str l.Wap_php.Loc.file); ("line", J.Int l.Wap_php.Loc.line);
          ("col", J.Int l.Wap_php.Loc.col) ]

let origin_to_json (o : Wap_taint.Trace.origin) : J.t =
  J.Obj
    [
      ("source", J.Str o.Wap_taint.Trace.source);
      ("source_loc", loc_to_json o.Wap_taint.Trace.source_loc);
      ( "steps",
        J.List
          (List.map
             (fun (s : Wap_taint.Trace.step) ->
               J.Obj
                 [ ("loc", loc_to_json s.Wap_taint.Trace.step_loc);
                   ("code", J.Str s.Wap_taint.Trace.step_desc) ])
             (Wap_taint.Trace.steps_in_order o)) );
      ("through", J.List (List.map (fun f -> J.Str f) o.Wap_taint.Trace.through));
      ("guards", J.List (List.map (fun g -> J.Str g) o.Wap_taint.Trace.guards));
    ]

let finding_to_json ?(verdict : Wap_confirm.Confirm.verdict option)
    (f : Tool.finding) : J.t =
  let c = f.Tool.candidate in
  J.Obj
    ([
       ("class", J.Str (Wap_catalog.Vuln_class.acronym c.Wap_taint.Trace.vclass));
       ("kind", J.Str (if f.Tool.predicted_fp then "false_positive" else "vulnerability"));
       ("sink", J.Str c.Wap_taint.Trace.sink_name);
       ("sink_loc", loc_to_json c.Wap_taint.Trace.sink_loc);
       ("origin", origin_to_json (Wap_taint.Trace.primary c));
       ("symptoms", J.List (List.map (fun s -> J.Str s) f.Tool.symptoms));
     ]
    @
    match verdict with
    | None -> []
    | Some v ->
        [ ( "dynamic_confirmation",
            J.Str
              (match v with
              | Wap_confirm.Confirm.Confirmed -> "confirmed"
              | Wap_confirm.Confirm.Not_confirmed -> "not_confirmed"
              | Wap_confirm.Confirm.Unsupported -> "not_replayable") ) ])

(** The whole result of one analyzed package/file as a JSON document.
    [confirm] additionally replays each finding with an attack payload
    and attaches the verdict. *)
let result_to_json ?(confirm = false) (r : Tool.package_result) : J.t =
  let units = lazy (Tool.parse_package r.Tool.package) in
  let by_file = lazy (
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (u : Wap_taint.Analyzer.file_unit) ->
        Hashtbl.replace tbl u.Wap_taint.Analyzer.path u.Wap_taint.Analyzer.program)
      (Lazy.force units);
    tbl)
  in
  let verdict_for (f : Tool.finding) =
    if not confirm then None
    else
      match
        Hashtbl.find_opt (Lazy.force by_file) f.Tool.candidate.Wap_taint.Trace.file
      with
      | Some program ->
          Some (Wap_confirm.Confirm.confirm_candidate ~program f.Tool.candidate)
      | None -> None
  in
  J.Obj
    [
      ("package", J.Str r.Tool.package.Wap_corpus.Appgen.pkg_name);
      ("files", J.Int r.Tool.files_analyzed);
      ("loc", J.Int r.Tool.loc);
      ("analysis_seconds", J.Float r.Tool.analysis_seconds);
      ("analysis_cpu_seconds", J.Float r.Tool.analysis_cpu_seconds);
      ( "phases",
        J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.Tool.phase_seconds) );
      ( "findings",
        J.List
          (List.map (fun f -> finding_to_json ?verdict:(verdict_for f) f) r.Tool.findings) );
      ("vulnerabilities", J.Int (List.length r.Tool.reported));
      ("predicted_false_positives", J.Int (List.length r.Tool.predicted_fps));
    ]

(** Convenience wrapper producing the serialized document. *)
let result_to_string ?confirm (r : Tool.package_result) : string =
  Wap_report.Json.to_string (result_to_json ?confirm r)

(* ------------------------------------------------------------------ *)
(* HTML export.                                                        *)

let html_row ?(verdict : Wap_confirm.Confirm.verdict option) (f : Tool.finding) :
    Wap_report.Html.row =
  let c = f.Tool.candidate in
  let o = Wap_taint.Trace.primary c in
  {
    Wap_report.Html.r_kind =
      (if f.Tool.predicted_fp then `False_positive else `Vulnerability);
    r_class = Wap_catalog.Vuln_class.acronym c.Wap_taint.Trace.vclass;
    r_file = c.Wap_taint.Trace.file;
    r_line = c.Wap_taint.Trace.sink_loc.Wap_php.Loc.line;
    r_sink = c.Wap_taint.Trace.sink_name;
    r_source = o.Wap_taint.Trace.source;
    r_symptoms = f.Tool.symptoms;
    r_steps =
      List.map
        (fun (s : Wap_taint.Trace.step) ->
          ( s.Wap_taint.Trace.step_loc.Wap_php.Loc.file,
            s.Wap_taint.Trace.step_loc.Wap_php.Loc.line,
            s.Wap_taint.Trace.step_desc ))
        (Wap_taint.Trace.steps_in_order o);
    r_confirmation =
      Option.map
        (function
          | Wap_confirm.Confirm.Confirmed -> "exploit confirmed"
          | Wap_confirm.Confirm.Not_confirmed -> "exploit not reproduced"
          | Wap_confirm.Confirm.Unsupported -> "not replayable")
        verdict;
  }

(** The whole result as a standalone HTML report. *)
let result_to_html ?(confirm = false) (r : Tool.package_result) : string =
  let by_file = Hashtbl.create 8 in
  List.iter
    (fun (f : Wap_corpus.Appgen.file) ->
      Hashtbl.replace by_file f.Wap_corpus.Appgen.f_name
        (lazy
          (fst
             (Wap_php.Parser.parse_string_tolerant
                ~file:f.Wap_corpus.Appgen.f_name f.Wap_corpus.Appgen.f_source))))
    r.Tool.package.Wap_corpus.Appgen.pkg_files;
  let verdict_for (f : Tool.finding) =
    if not confirm then None
    else
      match Hashtbl.find_opt by_file f.Tool.candidate.Wap_taint.Trace.file with
      | Some program ->
          Some
            (Wap_confirm.Confirm.confirm_candidate ~program:(Lazy.force program)
               f.Tool.candidate)
      | None -> None
  in
  Wap_report.Html.render
    {
      Wap_report.Html.title =
        Printf.sprintf "WAP report — %s" r.Tool.package.Wap_corpus.Appgen.pkg_name;
      generated_by = "wap 3.0-repro (DSN'16 reproduction)";
      rows =
        List.map (fun f -> html_row ?verdict:(verdict_for f) f) r.Tool.findings;
    }
