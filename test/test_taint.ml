(** Tests for the taint analyzer: detection, sanitization, guards,
    interprocedural summaries, loops and de-duplication. *)

module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog
module An = Wap_taint.Analyzer
module Tr = Wap_taint.Trace

let analyze ?(vclass = VC.Sqli) src : Tr.candidate list =
  let program = Wap_php.Parser.parse_string ~file:"t.php" ("<?php\n" ^ src) in
  An.analyze_program ~spec:(Cat.default_spec vclass) ~file:"t.php" program

let count ?vclass src = List.length (analyze ?vclass src)

let first ?vclass src =
  match analyze ?vclass src with
  | c :: _ -> c
  | [] -> Alcotest.fail "expected at least one candidate"

let primary ?vclass src = Tr.primary (first ?vclass src)

(* ------------------------------------------------------------------ *)
(* Basic detection.                                                    *)

let test_direct_flow () =
  Alcotest.(check int) "direct superglobal to sink" 1
    (count "mysql_query($_GET['q']);")

let test_variable_chain () =
  let c = first "$a = $_POST['x'];\n$b = $a;\n$c = $b;\nmysql_query($c);" in
  Alcotest.(check string) "source" "$_POST['x']" (Tr.primary c).Tr.source;
  Alcotest.(check int) "steps recorded" 3
    (List.length (Tr.steps_in_order (Tr.primary c)))

let test_interpolation_flow () =
  Alcotest.(check int) "interp taints query" 1
    (count "$u = $_GET['u'];\n$q = \"SELECT * FROM t WHERE u = '$u'\";\nmysql_query($q);")

let test_concat_flow () =
  Alcotest.(check int) "concat taints" 1
    (count "mysql_query('SELECT * FROM t WHERE id = ' . $_GET['id']);")

let test_compound_concat () =
  Alcotest.(check int) ".= accumulates taint" 1
    (count "$q = 'SELECT * FROM t WHERE c = ';\n$q .= $_GET['c'];\nmysql_query($q);")

(* a compound assignment's step keeps its operator: [$a .= 'y'] extends
   the taint, it does not overwrite it *)
let test_compound_step_text () =
  let steps src =
    List.map
      (fun s -> s.Tr.step_desc)
      (Tr.steps_in_order (primary ~vclass:VC.Xss_reflected src))
  in
  Alcotest.(check (list string))
    ".= step" [ "$a = $_GET['x']"; "$a .= 'y'" ]
    (steps "$a = $_GET['x'];\n$a .= \"y\";\necho $a;");
  Alcotest.(check (list string))
    "+= step" [ "$n = $_GET['n']"; "$n += 1" ]
    (steps "$n = $_GET['n'];\n$n += 1;\necho $n;")

let test_clean_code_silent () =
  Alcotest.(check int) "literals are clean" 0
    (count "$q = 'SELECT 1';\nmysql_query($q);\necho 'hello';");
  Alcotest.(check int) "local vars are clean" 0
    (count "$a = 5;\n$b = $a + 1;\nmysql_query('SELECT ' . $b);")

let test_per_class_sinks () =
  let cases =
    [ (VC.Xss_reflected, "echo $_GET['m'];");
      (VC.Xss_reflected, "print($_GET['m']);");
      (VC.Hi, "header('X: ' . $_COOKIE['h']);");
      (VC.Ei, "mail($_POST['to'], 's', 'b');");
      (VC.Osci, "system('ls ' . $_GET['d']);");
      (VC.Phpci, "eval($_REQUEST['code']);");
      (VC.Ldapi, "ldap_search($c, 'dc=x', \"(uid={$_GET['u']})\");");
      (VC.Xpathi, "xpath_eval($x, $_GET['p']);");
      (VC.Sf, "session_id($_GET['sid']);");
      (VC.Sf, "setcookie('s', $_COOKIE['t']);");
      (VC.Cs, "file_put_contents('c.txt', $_POST['comment']);");
      (VC.Rfi, "include($_GET['page']);");
      (VC.Lfi, "require('./p/' . $_GET['page']);");
      (VC.Dt_pt, "readfile('./d/' . $_GET['f']);");
      (VC.Scd, "show_source($_GET['f']);") ]
  in
  List.iter
    (fun (vclass, src) ->
      Alcotest.(check int) (VC.acronym vclass ^ ": " ^ src) 1 (count ~vclass src))
    cases

let test_method_sink () =
  Alcotest.(check int) "wpdb->query" 1
    (count ~vclass:VC.Wp_sqli
       "$id = $_GET['id'];\n$wpdb->query(\"DELETE FROM t WHERE id = $id\");");
  Alcotest.(check int) "collection->find" 1
    (count ~vclass:VC.Nosqli
       "$collection->find(array('u' => $_POST['u']));")

let test_exit_sink () =
  Alcotest.(check int) "exit() as XSS sink" 1
    (count ~vclass:VC.Xss_reflected "exit('bye ' . $_GET['n']);")

let test_backtick_sink () =
  (* the shell-execution operator is an OSCI sink *)
  Alcotest.(check int) "backtick" 1
    (count ~vclass:VC.Osci "$d = $_GET['dir'];\n$out = `ls -l $d`;");
  Alcotest.(check int) "clean backtick" 0 (count ~vclass:VC.Osci "$out = `uptime`;")

let test_sprintf_flow () =
  (* sprintf propagates taint and records the query structure *)
  let c =
    first
      "$id = $_GET['id'];\n$q = sprintf('SELECT name FROM users WHERE id = %d', $id);\nmysql_query($q);"
  in
  let o = Tr.primary c in
  Alcotest.(check bool) "through sprintf" true (List.mem "sprintf" o.Tr.through);
  let lits =
    List.filter_map (function Tr.Qlit s -> Some s | Tr.Qdyn -> None)
      (Tr.parts_in_order o)
  in
  Alcotest.(check bool) "format captured" true
    (List.exists (fun s -> s = "SELECT name FROM users WHERE id = ") lits);
  (* ... so the SQL symptoms see FROM and the numeric position *)
  let ev = Wap_mining.Evidence.collect c in
  Alcotest.(check bool) "from" true (Wap_mining.Evidence.mem "from" ev);
  Alcotest.(check bool) "is_num" true (Wap_mining.Evidence.mem "is_num" ev)

let test_sprintf_clean () =
  Alcotest.(check int) "sprintf of literals is clean" 0
    (count "$q = sprintf('SELECT %d', 7);\nmysql_query($q);")

(* ------------------------------------------------------------------ *)
(* Sanitization.                                                       *)

let test_sanitizer_kills () =
  Alcotest.(check int) "sqli sanitizer" 0
    (count "$u = mysql_real_escape_string($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");");
  Alcotest.(check int) "xss sanitizer" 0
    (count ~vclass:VC.Xss_reflected "echo htmlspecialchars($_GET['m']);");
  Alcotest.(check int) "path sanitizer" 0
    (count ~vclass:VC.Dt_pt "readfile('./d/' . basename($_GET['f']));")

let test_sanitizer_is_class_specific () =
  (* htmlspecialchars does not protect against SQLI *)
  Alcotest.(check int) "xss sanitizer does not stop sqli" 1
    (count "$u = htmlspecialchars($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");")

let test_sanitizer_method () =
  Alcotest.(check int) "wpdb->prepare" 0
    (count ~vclass:VC.Wp_sqli
       "$wpdb->query($wpdb->prepare('SELECT * FROM t WHERE id = %d', $_GET['id']));")

let test_extra_sanitizer_via_spec () =
  let src =
    "$u = escape($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");"
  in
  Alcotest.(check int) "unknown user function keeps taint" 1 (count src);
  let spec = Cat.default_spec VC.Sqli in
  let spec = { spec with Cat.sanitizers = Cat.San_fn "escape" :: spec.Cat.sanitizers } in
  let program = Wap_php.Parser.parse_string ~file:"t.php" ("<?php\n" ^ src) in
  Alcotest.(check int) "registered user sanitizer kills" 0
    (List.length (An.analyze_program ~spec ~file:"t.php" program))

(* ------------------------------------------------------------------ *)
(* Guards and evidence.                                                *)

let test_guard_recorded () =
  let o =
    primary
      "$id = $_GET['id'];\nif (is_numeric($id)) {\n  mysql_query('SELECT * FROM t WHERE id = ' . $id);\n}"
  in
  Alcotest.(check bool) "is_numeric guard" true (List.mem "is_numeric" o.Tr.guards)

let test_guard_die_pattern () =
  let o =
    primary
      "$n = $_GET['n'];\nif (!preg_match('/^[a-z]+$/', $n)) { die('x'); }\nmysql_query(\"SELECT * FROM t WHERE n = '$n'\");"
  in
  Alcotest.(check bool) "preg_match guard" true (List.mem "preg_match" o.Tr.guards);
  Alcotest.(check bool) "exit evidence" true (List.mem "exit" o.Tr.guards)

let test_guard_not_applied_in_other_branch () =
  (* the candidate inside the else branch is NOT guarded by is_int *)
  let o =
    primary
      "$v = $_GET['v'];\nif (is_int($v)) {\n  $x = 1;\n} else {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "no is_int guard in else" false (List.mem "is_int" o.Tr.guards)

let test_guard_isset_negative_branch () =
  (* `if (empty($v)) {} else { sink }` : else means non-empty *)
  let o =
    primary
      "$v = $_GET['v'];\nif (empty($v)) {\n  $x = 1;\n} else {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "empty guard in else" true (List.mem "empty" o.Tr.guards)

let test_guard_conjunction () =
  let o =
    primary
      "$v = $_GET['v'];\nif (isset($v) && ctype_alnum($v)) {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "isset" true (List.mem "isset" o.Tr.guards);
  Alcotest.(check bool) "ctype_alnum" true (List.mem "ctype_alnum" o.Tr.guards)

let test_guard_comparison () =
  let o =
    primary
      "$v = $_GET['v'];\nif (strcmp($v, 'ok') == 0) {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "strcmp" true (List.mem "strcmp" o.Tr.guards)

let test_through_records_manipulations () =
  let o =
    primary
      "$v = trim($_GET['v']);\n$v = substr($v, 0, 9);\nmysql_query('SELECT * FROM t WHERE v = ' . $v);"
  in
  Alcotest.(check bool) "trim" true (List.mem "trim" o.Tr.through);
  Alcotest.(check bool) "substr" true (List.mem "substr" o.Tr.through);
  Alcotest.(check bool) "concat" true (List.mem "concat_op" o.Tr.through)

let test_cast_evidence () =
  let o =
    primary "$v = (int) $_GET['v'];\nmysql_query('SELECT * FROM t WHERE v = ' . $v);"
  in
  Alcotest.(check bool) "(int) recorded" true (List.mem "(int)" o.Tr.through)

let test_query_parts_recorded () =
  let o =
    primary
      "$v = $_GET['v'];\n$q = \"SELECT name FROM users WHERE id = \" . $v;\nmysql_query($q);"
  in
  let lits =
    List.filter_map (function Tr.Qlit s -> Some s | Tr.Qdyn -> None)
      (Tr.parts_in_order o)
  in
  Alcotest.(check bool) "query text captured" true
    (List.exists (fun s -> s = "SELECT name FROM users WHERE id = ") lits)

(* ------------------------------------------------------------------ *)
(* Interprocedural analysis.                                           *)

let test_param_to_sink () =
  let cands =
    analyze ~vclass:VC.Hi
      "function redirect($to) {\n  header('Location: ' . $to);\n}\nredirect($_GET['next']);"
  in
  Alcotest.(check int) "sink inside callee" 1 (List.length cands);
  let c = List.hd cands in
  (* line 1 is the <?php marker, line 2 the function header, line 3 the sink *)
  Alcotest.(check int) "sink line inside function" 3 c.Tr.sink_loc.Wap_php.Loc.line

let test_param_to_return () =
  let o =
    primary ~vclass:VC.Xss_reflected
      "function deco($x) { return '[' . trim($x) . ']'; }\necho deco($_GET['m']);"
  in
  Alcotest.(check bool) "through callee" true (List.mem "deco" o.Tr.through);
  Alcotest.(check bool) "through trim inside callee" true (List.mem "trim" o.Tr.through)

let test_sanitizing_wrapper () =
  Alcotest.(check int) "wrapper around sanitizer is a sanitizer" 0
    (count
       "function clean($x) { return mysql_real_escape_string($x); }\n\
        $u = clean($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");")

let test_source_function () =
  Alcotest.(check int) "function returning superglobal is a source" 1
    (count
       "function param($k) { return $_GET[$k]; }\n\
        mysql_query('SELECT * FROM t WHERE c = ' . param('c'));")

let test_two_level_call_chain () =
  Alcotest.(check int) "summary through two levels" 1
    (count
       "function inner($x) { return $x; }\n\
        function outer($y) { return inner($y); }\n\
        mysql_query('SELECT * FROM t WHERE c = ' . outer($_GET['c']));")

let test_superglobal_inside_function () =
  let cands =
    analyze "function run() {\n  mysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n}"
  in
  Alcotest.(check int) "flow local to a function body" 1 (List.length cands)

let test_method_summary () =
  Alcotest.(check int) "method body analyzed" 1
    (count ~vclass:VC.Xss_reflected
       "class V { public function show() { echo $_GET['m']; } }")

let test_closure_body () =
  Alcotest.(check int) "flow inside closure" 1
    (count ~vclass:VC.Xss_reflected
       "$f = function () { echo $_GET['m']; };")

(* ------------------------------------------------------------------ *)
(* Control flow.                                                       *)

let test_loop_taint () =
  Alcotest.(check int) "taint built inside loop" 1
    (count
       "$q = 'SELECT * FROM t WHERE c IN (';\n\
        foreach ($_POST['ids'] as $id) {\n  $q = $q . $id . ',';\n}\n\
        mysql_query($q . '0)');")

let test_foreach_binding () =
  Alcotest.(check int) "foreach over tainted subject" 1
    (count ~vclass:VC.Xss_reflected
       "foreach ($_GET as $k => $v) {\n  echo $v;\n}")

let test_unset_clears () =
  Alcotest.(check int) "unset kills taint" 0
    (count "$v = $_GET['v'];\nunset($v);\n$v = 'safe';\nmysql_query('SELECT ' . $v);")

let test_branch_merge () =
  (* taint from either branch survives the merge *)
  Alcotest.(check int) "tainted in one branch" 1
    (count
       "if ($_GET['mode'] == 'a') {\n  $v = $_GET['a'];\n} else {\n  $v = 'default';\n}\n\
        mysql_query(\"SELECT * FROM t WHERE v = '$v'\");")

let test_switch_flow () =
  Alcotest.(check int) "taint through switch case" 1
    (count
       "switch ($_GET['m']) {\n\
        case 'x': $v = $_GET['x']; break;\n\
        default: $v = '0';\n}\n\
        mysql_query('SELECT * FROM t WHERE v = ' . $v);")

let test_stored_xss_source () =
  Alcotest.(check int) "fetch result is a stored-XSS source" 1
    (count ~vclass:VC.Xss_stored
       "$r = mysql_query('SELECT body FROM c');\n\
        while ($row = mysql_fetch_assoc($r)) {\n  echo $row['body'];\n}");
  (* but not a reflected-XSS source *)
  Alcotest.(check int) "not a reflected-XSS source" 0
    (count ~vclass:VC.Xss_reflected
       "$r = mysql_query('SELECT body FROM c');\n\
        while ($row = mysql_fetch_assoc($r)) {\n  echo $row['body'];\n}")

let test_preg_replace_eval_modifier () =
  (* only the /e modifier makes preg_replace a PHPCI sink *)
  Alcotest.(check int) "with /e" 1
    (count ~vclass:VC.Phpci "preg_replace('/x/e', $_GET['r'], 'subject');");
  Alcotest.(check int) "without /e" 0
    (count ~vclass:VC.Phpci "preg_replace('/x/', $_GET['r'], 'subject');")

(* ------------------------------------------------------------------ *)
(* Cross-file include splicing.                                        *)

let project files =
  List.map
    (fun (path, src) ->
      { An.path; program = Wap_php.Parser.parse_string ~file:path src })
    files

let test_include_splicing () =
  let units =
    project
      [ ("config.php", "<?php\n$prefix = $_GET['p'];\n");
        ("index.php",
         "<?php\ninclude 'config.php';\nmysql_query('SELECT * FROM t WHERE c = ' . $prefix);\n") ]
  in
  let cands = An.analyze_project ~spec:(Cat.default_spec VC.Sqli) units in
  Alcotest.(check int) "cross-file flow found" 1 (List.length cands);
  let c = List.hd cands in
  Alcotest.(check string) "sink attributed to the includer" "index.php" c.Tr.file

let test_include_cycle_terminates () =
  let units =
    project
      [ ("a.php", "<?php\ninclude 'b.php';\n$x = $_GET['x'];\n");
        ("b.php", "<?php\ninclude 'a.php';\nmysql_query('SELECT ' . $x);\n") ]
  in
  (* must terminate; the mutual include is cut by the cycle guard *)
  let _ = An.analyze_project ~spec:(Cat.default_spec VC.Sqli) units in
  ()

let test_include_literal_concat () =
  let units =
    project
      [ ("inc.php", "<?php\n$v = $_POST['v'];\n");
        ("main.php", "<?php\ninclude './lib/' . 'inc.php';\necho $v;\n") ]
  in
  let cands =
    An.analyze_project ~spec:(Cat.default_spec VC.Xss_reflected) units
  in
  Alcotest.(check int) "concatenated literal path resolved" 1 (List.length cands)

let test_query_handle_barrier () =
  (* a tainted query string must not taint the result handle: rendering
     query results is not reflected XSS *)
  Alcotest.(check int) "result handle is clean" 0
    (count ~vclass:VC.Xss_reflected
       "$q = 'SELECT * FROM t WHERE c = ' . $_GET['c'];\n\
        $res = mysql_query($q);\n\
        $row = mysql_fetch_assoc($res);\n\
        echo $row['name'];")

let test_shared_helper_distinct_flows () =
  (* two call sites of one query helper are two findings *)
  let cands =
    analyze
      "function q($sql) { return mysql_query($sql); }\n\
       q('SELECT a FROM t WHERE x = ' . $_GET['x']);\n\
       q('SELECT b FROM u WHERE y = ' . $_POST['y']);"
  in
  Alcotest.(check int) "both flows kept" 2
    (List.length
       (List.sort_uniq compare (List.map Tr.dedup_key cands)))

let test_fix_function_recognized () =
  (* code already corrected by the tool is not re-flagged *)
  Alcotest.(check int) "san_sqli recognized" 0
    (count
       "function san_sqli($v) { return mysql_real_escape_string($v); }\n\
        $u = $_GET['u'];\nmysql_query(san_sqli(\"SELECT * FROM t WHERE u = '$u'\"));");
  Alcotest.(check int) "san_hei recognized" 0
    (count ~vclass:VC.Hi
       "function san_hei($v) { return str_replace(array(\"\\r\", \"\\n\"), ' ', $v); }\n\
        header(san_hei('Location: ' . $_GET['n']));")

(* ------------------------------------------------------------------ *)
(* Dead code: a sink control flow never reaches is not a candidate.    *)

let test_sink_after_exit_pruned () =
  Alcotest.(check int) "sink after unconditional exit" 0
    (count "exit;\nmysql_query($_GET['q']);")

let test_sink_after_return_in_function_pruned () =
  Alcotest.(check int) "sink after return inside function" 0
    (count "function f() {\n  return 1;\n  mysql_query($_GET['q']);\n}\nf();")

let test_sink_after_conditional_die_kept () =
  (* the guarded-die pattern leaves the sink reachable *)
  Alcotest.(check int) "sink after guarded die" 1
    (count "if (!$_GET['q']) { die(1); }\nmysql_query($_GET['q']);")

let test_sink_in_hoisted_function_kept () =
  (* declarations are hoisted: defining the function after exit does not
     make its body dead *)
  Alcotest.(check int) "sink in function declared after exit" 1
    (count "f($_GET['q']);\nexit;\nfunction f($x) {\n  mysql_query($x);\n}")

(* ------------------------------------------------------------------ *)
(* De-duplication and determinism.                                     *)

let test_candidate_dedup_same_sink () =
  (* one loop analyzed several times must yield one candidate *)
  let cands =
    analyze
      "for ($i = 0; $i < 3; $i++) {\n  mysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n}"
  in
  Alcotest.(check int) "single candidate" 1 (List.length cands)

let test_dedup_key_groups () =
  let rfi = first ~vclass:VC.Rfi "include($_GET['p']);" in
  let lfi = first ~vclass:VC.Lfi "include($_GET['p']);" in
  Alcotest.(check bool) "same dedup key across Files classes" true
    (Tr.dedup_key rfi = Tr.dedup_key lfi)

let test_determinism () =
  let src =
    "$a = $_GET['a'];\nif (!is_numeric($a)) { die(1); }\n\
     mysql_query('SELECT * FROM t WHERE a = ' . $a);\necho $_GET['b'];"
  in
  let run () =
    List.map Tr.summary (analyze src)
  in
  Alcotest.(check (list string)) "same results twice" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Cost and trace order.                                               *)

(* A callee-first return chain f1 -> ... -> fn, as perfbench's long-flow
   workload generates it. *)
let chain_source n =
  let b = Buffer.create (n * 64) in
  Buffer.add_string b "<?php\n";
  for i = n downto 1 do
    if i = n then Printf.bprintf b "function f%d($x) { return $x; }\n" i
    else
      Printf.bprintf b "function f%d($x) { $v = $x; return f%d($v); }\n" i
        (i + 1)
  done;
  Buffer.add_string b "echo f1($_GET['q']);\n";
  Buffer.contents b

(* The fused pass keeps one origin shared by all spec components, through
   summary calls too, so 17 specs cost about what one does.  Allocation
   pins it where time could not: it does not depend on the host.  A
   spec-by-spec rebuild of the chain's O(depth) [through] lists gives a
   ratio near the spec count. *)
let test_chain_cost_spec_independent () =
  let file = "chain.php" in
  let units =
    [ { An.path = file;
        program = Wap_php.Parser.parse_string ~file (chain_source 400) } ]
  in
  let words specs =
    let before = Gc.minor_words () in
    let found = An.analyze_project_indexed ~specs units in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "chain flow found" true (found <> []);
    words
  in
  let all = Cat.specs_for VC.all_builtin in
  Alcotest.(check int) "all builtin specs" 17 (List.length all);
  let one = words [ Cat.default_spec VC.Xss_reflected ] in
  let ratio = words all /. one in
  if ratio > 4.0 then
    Alcotest.failf "17 specs allocate %.2fx what one spec does (limit 4)"
      ratio

(* Steps and query parts are stored newest first; every reader must still
   see them oldest first. *)
let test_trace_order () =
  let c =
    first
      "$a = $_GET['id'];\n$b = $a;\n$c = $b;\n\
       $q = \"SELECT name FROM users WHERE id = \" . $c;\n\
       $q .= \" ORDER BY name\";\n$q .= \" LIMIT 10\";\nmysql_query($q);"
  in
  let o = Tr.primary c in
  let module J = Wap_report.Json in
  let codes =
    match Wap_core.Export.origin_to_json o with
    | J.Obj fields -> (
        match List.assoc_opt "steps" fields with
        | Some (J.List steps) ->
            List.filter_map
              (function
                | J.Obj s -> (
                    match List.assoc_opt "code" s with
                    | Some (J.Str code) -> Some code
                    | _ -> None)
                | _ -> None)
              steps
        | _ -> [])
    | _ -> []
  in
  Alcotest.(check (list string))
    "exported steps, oldest first"
    [ "$a = $_GET['id']"; "$b = $a"; "$c = $b";
      "$q = 'SELECT name FROM users WHERE id = ' . $c";
      "$q .= ' ORDER BY name'"; "$q .= ' LIMIT 10'" ]
    codes;
  Alcotest.(check (list string))
    "query parts, oldest first"
    [ "SELECT name FROM users WHERE id = "; "<dyn>"; " ORDER BY name";
      " LIMIT 10" ]
    (List.map
       (function Tr.Qlit s -> s | Tr.Qdyn -> "<dyn>")
       (Tr.parts_in_order o));
  (* the numeric position is seen only when "id = " precedes the hole *)
  Alcotest.(check bool) "is_num" true
    (Wap_mining.Evidence.mem "is_num" (Wap_mining.Evidence.collect c))

let qcheck_sanitizer_monotone =
  (* registering an extra sanitizer never increases the candidate count *)
  QCheck.Test.make ~name:"extra sanitizer is monotone" ~count:50
    QCheck.(int_bound 5_000)
    (fun seed ->
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g VC.Sqli Wap_corpus.Snippet.Real in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let program = Wap_php.Parser.parse_string ~file:"q.php" src in
      let spec = Cat.default_spec VC.Sqli in
      let more =
        { spec with Cat.sanitizers = Cat.San_fn "trim" :: spec.Cat.sanitizers }
      in
      let n1 = List.length (An.analyze_program ~spec ~file:"q.php" program) in
      let n2 = List.length (An.analyze_program ~spec:more ~file:"q.php" program) in
      n2 <= n1)

let qcheck_seeded_real_detected =
  (* every generated Real snippet is detected by its class's detector *)
  QCheck.Test.make ~name:"generated real vulns are detected" ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let classes = VC.wape in
      let vclass = List.nth classes (seed mod List.length classes) in
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g vclass Wap_corpus.Snippet.Real in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let program = Wap_php.Parser.parse_string ~file:"q.php" src in
      let spec = Cat.default_spec vclass in
      An.analyze_program ~spec ~file:"q.php" program <> [])

let qcheck_sanitized_silent =
  QCheck.Test.make ~name:"generated sanitized flows are silent" ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let classes =
        (* classes whose sanitized snippets use a genuine class sanitizer *)
        VC.[ Sqli; Xss_reflected; Rfi; Lfi; Dt_pt; Scd; Osci; Ldapi; Nosqli; Cs; Wp_sqli ]
      in
      let vclass = List.nth classes (seed mod List.length classes) in
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g vclass Wap_corpus.Snippet.Sanitized in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let program = Wap_php.Parser.parse_string ~file:"q.php" src in
      let spec = Cat.default_spec vclass in
      An.analyze_program ~spec ~file:"q.php" program = [])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_taint"
    [
      ( "dead code",
        [
          Alcotest.test_case "after exit" `Quick test_sink_after_exit_pruned;
          Alcotest.test_case "after return in function" `Quick
            test_sink_after_return_in_function_pruned;
          Alcotest.test_case "guarded die kept" `Quick
            test_sink_after_conditional_die_kept;
          Alcotest.test_case "hoisted function kept" `Quick
            test_sink_in_hoisted_function_kept;
        ] );
      ( "detection",
        [
          Alcotest.test_case "direct flow" `Quick test_direct_flow;
          Alcotest.test_case "variable chain" `Quick test_variable_chain;
          Alcotest.test_case "interpolation" `Quick test_interpolation_flow;
          Alcotest.test_case "concatenation" `Quick test_concat_flow;
          Alcotest.test_case ".= accumulation" `Quick test_compound_concat;
          Alcotest.test_case "compound step text" `Quick
            test_compound_step_text;
          Alcotest.test_case "clean code silent" `Quick test_clean_code_silent;
          Alcotest.test_case "all class sinks" `Quick test_per_class_sinks;
          Alcotest.test_case "method sinks" `Quick test_method_sink;
          Alcotest.test_case "exit sink" `Quick test_exit_sink;
          Alcotest.test_case "backtick sink" `Quick test_backtick_sink;
          Alcotest.test_case "sprintf flow" `Quick test_sprintf_flow;
          Alcotest.test_case "sprintf clean" `Quick test_sprintf_clean;
        ] );
      ( "sanitization",
        [
          Alcotest.test_case "sanitizer kills flow" `Quick test_sanitizer_kills;
          Alcotest.test_case "sanitizers are class-specific" `Quick
            test_sanitizer_is_class_specific;
          Alcotest.test_case "method sanitizer" `Quick test_sanitizer_method;
          Alcotest.test_case "user sanitizer via spec (V-A)" `Quick
            test_extra_sanitizer_via_spec;
        ] );
      ( "guards",
        [
          Alcotest.test_case "guard recorded" `Quick test_guard_recorded;
          Alcotest.test_case "die pattern" `Quick test_guard_die_pattern;
          Alcotest.test_case "polarity: else unguarded" `Quick
            test_guard_not_applied_in_other_branch;
          Alcotest.test_case "polarity: empty in else" `Quick
            test_guard_isset_negative_branch;
          Alcotest.test_case "conjunction" `Quick test_guard_conjunction;
          Alcotest.test_case "comparison guard" `Quick test_guard_comparison;
          Alcotest.test_case "manipulations recorded" `Quick
            test_through_records_manipulations;
          Alcotest.test_case "casts recorded" `Quick test_cast_evidence;
          Alcotest.test_case "query parts recorded" `Quick test_query_parts_recorded;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "param to sink" `Quick test_param_to_sink;
          Alcotest.test_case "param to return" `Quick test_param_to_return;
          Alcotest.test_case "sanitizing wrapper" `Quick test_sanitizing_wrapper;
          Alcotest.test_case "source function" `Quick test_source_function;
          Alcotest.test_case "two-level chain" `Quick test_two_level_call_chain;
          Alcotest.test_case "superglobal inside function" `Quick
            test_superglobal_inside_function;
          Alcotest.test_case "method bodies" `Quick test_method_summary;
          Alcotest.test_case "closure bodies" `Quick test_closure_body;
        ] );
      ( "control flow",
        [
          Alcotest.test_case "loop fixpoint" `Quick test_loop_taint;
          Alcotest.test_case "foreach binding" `Quick test_foreach_binding;
          Alcotest.test_case "unset clears" `Quick test_unset_clears;
          Alcotest.test_case "branch merge" `Quick test_branch_merge;
          Alcotest.test_case "switch" `Quick test_switch_flow;
          Alcotest.test_case "stored XSS source" `Quick test_stored_xss_source;
          Alcotest.test_case "preg_replace /e" `Quick test_preg_replace_eval_modifier;
        ] );
      ( "cross-file & barriers",
        [
          Alcotest.test_case "include splicing" `Quick test_include_splicing;
          Alcotest.test_case "include cycle terminates" `Quick
            test_include_cycle_terminates;
          Alcotest.test_case "literal concat path" `Quick test_include_literal_concat;
          Alcotest.test_case "query handle barrier" `Quick test_query_handle_barrier;
          Alcotest.test_case "shared helper distinct flows" `Quick
            test_shared_helper_distinct_flows;
          Alcotest.test_case "fix functions recognized" `Quick
            test_fix_function_recognized;
        ] );
      ( "dedup & determinism",
        [
          Alcotest.test_case "loop dedup" `Quick test_candidate_dedup_same_sink;
          Alcotest.test_case "dedup key groups" `Quick test_dedup_key_groups;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
      ( "cost & order",
        [
          Alcotest.test_case "chain cost independent of spec count" `Quick
            test_chain_cost_spec_independent;
          Alcotest.test_case "steps and parts oldest first" `Quick
            test_trace_order;
        ] );
      ( "properties",
        [ qt qcheck_sanitizer_monotone; qt qcheck_seeded_real_detected;
          qt qcheck_sanitized_silent ] );
    ]
