(** The pre-buffer list-building lexer, kept verbatim as the
    differential reference for the zero-allocation scanner in {!Lexer}.
    The [tokenize-equiv] fuzz oracle and the seed-replay tests compare
    its [(Token.t * Loc.t) list] against {!Lexer.tokenize}'s,
    token-for-token and loc-for-loc.

    It raises {!Lexer.Error} (not its own exception) so callers and
    oracles observe the two paths through one exception type.

    The only deliberate divergence from the historical code is shared
    with the new scanner: rewinding a non-exponent [e] suffix (the
    [1e+x] case) now restores the column alongside the position, where
    the old code left the column one or two characters ahead and every
    later location on that line drifted. *)

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make_state ~file src = { src; file; pos = 0; line = 1; col = 0 }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:st.col

let fail st msg = raise (Lexer.Error (msg, loc st))

let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (at_end st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 0
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let advance_n st n =
  for _ = 1 to n do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let looking_at_ci st s =
  let n = String.length s in
  st.pos + n <= String.length st.src
  && String.lowercase_ascii (String.sub st.src st.pos n) = String.lowercase_ascii s

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let read_ident st =
  let buf = Buffer.create 16 in
  while (not (at_end st)) && is_ident_char (peek st) do
    Buffer.add_char buf (peek st);
    advance st
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Escape sequences in double-quoted context.                          *)

let resolve_dq_escape ?(quote = '"') st =
  (* Called with [peek st] on the char right after a backslash.  [quote]
     is the delimiter of the surrounding context (['"'] for double-quoted
     strings and heredocs, ['`'] for backticks) — a backslash-escaped
     delimiter always resolves to the delimiter itself. *)
  let c = peek st in
  advance st;
  if c = quote then Some quote
  else
  match c with
  | 'n' -> Some '\n'
  | 't' -> Some '\t'
  | 'r' -> Some '\r'
  | 'v' -> Some '\011'
  | 'f' -> Some '\012'
  | 'e' -> Some '\027'
  | '\\' -> Some '\\'
  | '$' -> Some '$'
  | '"' -> Some '"'
  | '0' .. '7' ->
      (* up to three octal digits, first already consumed *)
      let v = ref (Char.code c - Char.code '0') in
      let n = ref 1 in
      while !n < 3 && peek st >= '0' && peek st <= '7' do
        v := (!v * 8) + (Char.code (peek st) - Char.code '0');
        advance st;
        incr n
      done;
      Some (Char.chr (!v land 0xff))
  | 'x' ->
      if is_hex (peek st) then begin
        let v = ref 0 in
        let n = ref 0 in
        while !n < 2 && is_hex (peek st) do
          let d = peek st in
          let dv =
            if is_digit d then Char.code d - Char.code '0'
            else (Char.code (Char.lowercase_ascii d) - Char.code 'a') + 10
          in
          v := (!v * 16) + dv;
          advance st;
          incr n
        done;
        Some (Char.chr (!v land 0xff))
      end
      else (* not an escape: PHP keeps the backslash *) None
  | other ->
      (* Unknown escape: PHP keeps the backslash. We signal with None and
         let the caller emit both characters. *)
      ignore other;
      None

(* ------------------------------------------------------------------ *)
(* Interpolated (double-quoted / heredoc) content.                     *)

let scan_interp_parts ?quote st ~(stop : state -> bool)
    ~(consume_stop : state -> unit) : Token.interp_part list =
  let parts = ref [] in
  let buf = Buffer.create 32 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Token.Part_str (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if at_end st then fail st "unterminated string"
    else if stop st then consume_stop st
    else
      match peek st with
      | '\\' ->
          advance st;
          if at_end st then fail st "dangling backslash in string";
          let before = peek st in
          (match resolve_dq_escape ?quote st with
          | Some c -> Buffer.add_char buf c
          | None ->
              Buffer.add_char buf '\\';
              Buffer.add_char buf before);
          loop ()
      | '$' when is_ident_start (peek2 st) ->
          flush ();
          advance st (* $ *);
          let name = read_ident st in
          (* simple syntax: optional [sub] or ->prop *)
          if peek st = '[' then begin
            advance st;
            let sub =
              if peek st = '$' then begin
                advance st;
                Token.Sub_var (read_ident st)
              end
              else if is_digit (peek st) then begin
                let b = Buffer.create 8 in
                while is_digit (peek st) do
                  Buffer.add_char b (peek st);
                  advance st
                done;
                (* offsets beyond the native int range behave like plain
                   string keys, as PHP treats them *)
                match int_of_string_opt (Buffer.contents b) with
                | Some n -> Token.Sub_int n
                | None -> Token.Sub_name (Buffer.contents b)
              end
              else if is_ident_start (peek st) then Token.Sub_name (read_ident st)
              else if peek st = '\'' then begin
                (* tolerate quoted key in simple syntax *)
                advance st;
                let b = Buffer.create 8 in
                while peek st <> '\'' && not (at_end st) do
                  Buffer.add_char b (peek st);
                  advance st
                done;
                advance st;
                Token.Sub_name (Buffer.contents b)
              end
              else fail st "bad subscript in string interpolation"
            in
            if peek st <> ']' then fail st "expected ] in string interpolation";
            advance st;
            parts := Token.Part_index (name, sub) :: !parts
          end
          else if peek st = '-' && peek2 st = '>' then begin
            advance_n st 2;
            if not (is_ident_start (peek st)) then
              fail st "expected property name in string interpolation";
            let prop = read_ident st in
            parts := Token.Part_prop (name, prop) :: !parts
          end
          else parts := Token.Part_var name :: !parts;
          loop ()
      | '$' when peek2 st = '{' ->
          (* ${name} legacy syntax *)
          flush ();
          advance_n st 2;
          let name = read_ident st in
          if peek st <> '}' then fail st "expected } in ${...} interpolation";
          advance st;
          parts := Token.Part_var name :: !parts;
          loop ()
      | '{' when peek2 st = '$' ->
          flush ();
          advance st (* { *);
          (* capture to matching close brace, tracking nesting and quotes *)
          let b = Buffer.create 16 in
          let depth = ref 1 in
          let rec cap () =
            if at_end st then fail st "unterminated {$...} interpolation"
            else
              match peek st with
              | '{' ->
                  incr depth;
                  Buffer.add_char b '{';
                  advance st;
                  cap ()
              | '}' ->
                  decr depth;
                  if !depth = 0 then advance st
                  else begin
                    Buffer.add_char b '}';
                    advance st;
                    cap ()
                  end
              | '\'' | '"' ->
                  let q = peek st in
                  Buffer.add_char b q;
                  advance st;
                  let rec instr () =
                    if at_end st then fail st "unterminated string in interpolation"
                    else if peek st = '\\' then begin
                      Buffer.add_char b '\\';
                      advance st;
                      Buffer.add_char b (peek st);
                      advance st;
                      instr ()
                    end
                    else if peek st = q then begin
                      Buffer.add_char b q;
                      advance st
                    end
                    else begin
                      Buffer.add_char b (peek st);
                      advance st;
                      instr ()
                    end
                  in
                  instr ();
                  cap ()
              | c ->
                  Buffer.add_char b c;
                  advance st;
                  cap ()
          in
          cap ();
          parts := Token.Part_complex (Buffer.contents b) :: !parts;
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          loop ()
  in
  loop ();
  flush ();
  List.rev !parts

(* When a double-quoted string has no interpolation we collapse it into a
   CONST_STRING so downstream code sees plain literals. *)
let collapse_parts (parts : Token.interp_part list) : Token.t =
  let all_str =
    List.for_all (function Token.Part_str _ -> true | _ -> false) parts
  in
  if all_str then
    Token.CONST_STRING
      (String.concat ""
         (List.map (function Token.Part_str s -> s | _ -> assert false) parts))
  else Token.INTERP_STRING parts

(* ------------------------------------------------------------------ *)
(* Main tokenizer.                                                     *)

type mode = Html | Php

let tokenize ~file src : (Token.t * Loc.t) list =
  let st = make_state ~file src in
  let out = ref [] in
  let emit tok l = out := (tok, l) :: !out in
  let mode = ref Html in
  let rec run () =
    if at_end st then emit Token.EOF (loc st)
    else
      match !mode with
      | Html -> html ()
      | Php -> php ()
  and html () =
    let l = loc st in
    let buf = Buffer.create 64 in
    let rec loop () =
      if at_end st then ()
      else if looking_at_ci st "<?php" then begin
        advance_n st 5;
        mode := Php
      end
      else if looking_at st "<?=" then begin
        advance_n st 3;
        mode := Php;
        (* <?= is sugar for echo *)
        if Buffer.length buf > 0 then emit (Token.INLINE_HTML (Buffer.contents buf)) l;
        Buffer.clear buf;
        emit Token.K_ECHO (loc st)
      end
      else begin
        Buffer.add_char buf (peek st);
        advance st;
        loop ()
      end
    in
    loop ();
    if Buffer.length buf > 0 then emit (Token.INLINE_HTML (Buffer.contents buf)) l;
    run ()
  and php () =
    if at_end st then emit Token.EOF (loc st)
    else begin
      let c = peek st in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
        advance st;
        php ()
      end
      else if looking_at st "?>" then begin
        (* close tag terminates the current statement; only synthesize a
           semicolon when one is actually missing *)
        let l = loc st in
        advance_n st 2;
        (* PHP swallows a single newline right after the close tag *)
        if peek st = '\n' then advance st;
        (match !out with
        | (Token.SEMI, _) :: _ | (Token.LBRACE, _) :: _ | (Token.RBRACE, _) :: _
        | (Token.COLON, _) :: _ | [] ->
            ()
        | _ -> emit Token.SEMI l);
        mode := Html;
        run ()
      end
      else if looking_at st "//" || c = '#' then begin
        while (not (at_end st)) && peek st <> '\n' && not (looking_at st "?>") do
          advance st
        done;
        php ()
      end
      else if looking_at st "/*" then begin
        advance_n st 2;
        while (not (at_end st)) && not (looking_at st "*/") do
          advance st
        done;
        if at_end st then fail st "unterminated block comment";
        advance_n st 2;
        php ()
      end
      else begin
        let l = loc st in
        let tok = token l in
        emit tok l;
        php ()
      end
    end
  and token l =
    let c = peek st in
    if c = '$' then begin
      advance st;
      if is_ident_start (peek st) then Token.VARIABLE (read_ident st)
      else if peek st = '$' then Token.DOLLAR
      else if peek st = '{' then fail st "${expr} variable-variables unsupported"
      else Token.DOLLAR
    end
    else if is_ident_start c then begin
      let id = read_ident st in
      match Token.of_keyword id with Some k -> k | None -> Token.IDENT id
    end
    else if is_digit c || (c = '.' && is_digit (peek2 st)) then number ()
    else if c = '\'' then single_quoted ()
    else if c = '"' then double_quoted ()
    else if c = '`' then backtick ()
    else if looking_at st "<<<" then heredoc ()
    else operator l
  and number () =
    let b = Buffer.create 16 in
    if looking_at st "0x" || looking_at st "0X" then begin
      Buffer.add_string b "0x";
      advance_n st 2;
      while is_hex (peek st) do
        Buffer.add_char b (peek st);
        advance st
      done;
      if Buffer.length b = 2 then fail st "malformed hexadecimal literal";
      let s = Buffer.contents b in
      (match int_of_string_opt s with
      | Some n -> Token.INT n
      | None ->
          (* hex literal beyond the native int range: PHP overflows to
             float; fold the digits ourselves *)
          let v = ref 0.0 in
          String.iter
            (fun c ->
              let d =
                if is_digit c then Char.code c - Char.code '0'
                else (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
              in
              v := (!v *. 16.0) +. float_of_int d)
            (String.sub s 2 (String.length s - 2));
          Token.FLOAT !v)
    end
    else begin
      let is_float = ref false in
      while is_digit (peek st) do
        Buffer.add_char b (peek st);
        advance st
      done;
      if peek st = '.' && is_digit (peek2 st) then begin
        is_float := true;
        Buffer.add_char b '.';
        advance st;
        while is_digit (peek st) do
          Buffer.add_char b (peek st);
          advance st
        done
      end;
      if peek st = 'e' || peek st = 'E' then begin
        let save = st.pos in
        let save_col = st.col in
        let b2 = Buffer.create 4 in
        Buffer.add_char b2 'e';
        advance st;
        if peek st = '+' || peek st = '-' then begin
          Buffer.add_char b2 (peek st);
          advance st
        end;
        if is_digit (peek st) then begin
          is_float := true;
          while is_digit (peek st) do
            Buffer.add_char b2 (peek st);
            advance st
          done;
          Buffer.add_buffer b b2
        end
        else begin
          (* not an exponent after all; rewind (column included, or
             every later loc on the line drifts) *)
          st.pos <- save;
          st.col <- save_col
        end
      end;
      let s = Buffer.contents b in
      if !is_float then Token.FLOAT (float_of_string s)
      else
        match int_of_string_opt s with
        | Some n -> Token.INT n
        | None -> Token.FLOAT (float_of_string s)
    end
  and single_quoted () =
    advance st (* ' *);
    let b = Buffer.create 16 in
    let rec loop () =
      if at_end st then fail st "unterminated single-quoted string"
      else
        match peek st with
        | '\'' -> advance st
        | '\\' ->
            advance st;
            (match peek st with
            | '\'' -> Buffer.add_char b '\''
            | '\\' -> Buffer.add_char b '\\'
            | other ->
                Buffer.add_char b '\\';
                Buffer.add_char b other);
            advance st;
            loop ()
        | ch ->
            Buffer.add_char b ch;
            advance st;
            loop ()
    in
    loop ();
    Token.CONST_STRING (Buffer.contents b)
  and double_quoted () =
    advance st (* opening quote *);
    let parts =
      scan_interp_parts st
        ~stop:(fun s -> peek s = '"')
        ~consume_stop:(fun s -> advance s)
    in
    collapse_parts parts
  and backtick () =
    advance st (* opening backtick *);
    let parts =
      scan_interp_parts ~quote:'`' st
        ~stop:(fun s -> peek s = '`')
        ~consume_stop:(fun s -> advance s)
    in
    Token.BACKTICK_STRING parts
  and heredoc () =
    advance_n st 3;
    (* optional quotes around the tag *)
    let nowdoc = peek st = '\'' in
    if nowdoc || peek st = '"' then advance st;
    let tag = read_ident st in
    if tag = "" then fail st "missing heredoc tag";
    if nowdoc || peek st = '"' then if peek st = '\'' || peek st = '"' then advance st;
    (* consume to end of line *)
    while (not (at_end st)) && peek st <> '\n' do
      advance st
    done;
    if not (at_end st) then advance st;
    let terminator st =
      (* the terminator must start a line, possibly indented *)
      let rec check i =
        if i >= String.length st.src then false
        else
          match st.src.[i] with
          | ' ' | '\t' -> check (i + 1)
          | _ ->
              i + String.length tag <= String.length st.src
              && String.sub st.src i (String.length tag) = tag
              && (i + String.length tag >= String.length st.src
                 ||
                 let nc = st.src.[i + String.length tag] in
                 not (is_ident_char nc))
      in
      (st.pos = 0 || st.src.[st.pos - 1] = '\n') && check st.pos
    in
    let consume_term st =
      while peek st = ' ' || peek st = '\t' do
        advance st
      done;
      advance_n st (String.length tag)
    in
    (* PHP strips the newline that precedes the terminator *)
    let strip_last_nl s =
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s
    in
    if nowdoc then begin
      let b = Buffer.create 32 in
      let rec loop () =
        if at_end st then fail st "unterminated nowdoc"
        else if terminator st then consume_term st
        else begin
          Buffer.add_char b (peek st);
          advance st;
          loop ()
        end
      in
      loop ();
      Token.CONST_STRING (strip_last_nl (Buffer.contents b))
    end
    else
      let parts = scan_interp_parts st ~stop:terminator ~consume_stop:consume_term in
      let parts =
        match List.rev parts with
        | Token.Part_str s :: rest ->
            let s = strip_last_nl s in
            if s = "" && rest <> [] then List.rev rest
            else List.rev (Token.Part_str s :: rest)
        | _ -> parts
      in
      collapse_parts parts
  and operator _l =
    let tk2 t n =
      advance_n st n;
      t
    in
    if looking_at st "<=>" then tk2 Token.SPACESHIP 3
    else if looking_at st "===" then tk2 Token.IDENTICAL 3
    else if looking_at st "!==" then tk2 Token.NOT_IDENTICAL 3
    else if looking_at st "**=" then tk2 Token.POW_EQ 3
    else if looking_at st "<<=" then tk2 Token.SHL_EQ 3
    else if looking_at st ">>=" then tk2 Token.SHR_EQ 3
    else if looking_at st "??=" then tk2 Token.QQ_EQ 3
    else if looking_at st "..." then tk2 Token.ELLIPSIS 3
    else if looking_at st "==" then tk2 Token.EQ_EQ 2
    else if looking_at st "!=" || looking_at st "<>" then tk2 Token.NEQ 2
    else if looking_at st "<=" then tk2 Token.LE 2
    else if looking_at st ">=" then tk2 Token.GE 2
    else if looking_at st "&&" then tk2 Token.AMP_AMP 2
    else if looking_at st "||" then tk2 Token.PIPE_PIPE 2
    else if looking_at st "++" then tk2 Token.INC 2
    else if looking_at st "--" then tk2 Token.DEC 2
    else if looking_at st "+=" then tk2 Token.PLUS_EQ 2
    else if looking_at st "-=" then tk2 Token.MINUS_EQ 2
    else if looking_at st "*=" then tk2 Token.STAR_EQ 2
    else if looking_at st "/=" then tk2 Token.SLASH_EQ 2
    else if looking_at st "%=" then tk2 Token.PERCENT_EQ 2
    else if looking_at st ".=" then tk2 Token.DOT_EQ 2
    else if looking_at st "&=" then tk2 Token.AMP_EQ 2
    else if looking_at st "|=" then tk2 Token.PIPE_EQ 2
    else if looking_at st "^=" then tk2 Token.CARET_EQ 2
    else if looking_at st "**" then tk2 Token.POW 2
    else if looking_at st "<<" then tk2 Token.SHL 2
    else if looking_at st ">>" then tk2 Token.SHR 2
    else if looking_at st "->" then tk2 Token.ARROW 2
    else if looking_at st "=>" then tk2 Token.DOUBLE_ARROW 2
    else if looking_at st "::" then tk2 Token.DOUBLE_COLON 2
    else if looking_at st "??" then tk2 Token.QQ 2
    else
      let c = peek st in
      advance st;
      match c with
      | '(' -> Token.LPAREN
      | ')' -> Token.RPAREN
      | '{' -> Token.LBRACE
      | '}' -> Token.RBRACE
      | '[' -> Token.LBRACKET
      | ']' -> Token.RBRACKET
      | ';' -> Token.SEMI
      | ',' -> Token.COMMA
      | ':' -> Token.COLON
      | '?' -> Token.QUESTION
      | '@' -> Token.AT
      | '+' -> Token.PLUS
      | '-' -> Token.MINUS
      | '*' -> Token.STAR
      | '/' -> Token.SLASH
      | '%' -> Token.PERCENT
      | '.' -> Token.DOT
      | '=' -> Token.EQ
      | '<' -> Token.LT
      | '>' -> Token.GT
      | '!' -> Token.BANG
      | '&' -> Token.AMP
      | '|' -> Token.PIPE
      | '^' -> Token.CARET
      | '~' -> Token.TILDE
      | other -> fail st (Printf.sprintf "unexpected character %C" other)
  in
  run ();
  List.rev !out
