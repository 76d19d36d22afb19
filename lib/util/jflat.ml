(* Minimal parser for the flat one-line JSON objects this project writes
   itself: string, number, bool and int-list values, no nesting. Shared
   by the protocol-plan loader and the trace event decoder. *)

exception Parse_error of string

type value = Num of float | Bool of bool | Str of string | Ints of int list

type t = (string * value) list

let parse_exn line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let skip_ws () =
    while
      !pos < n
      && match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  let peek () =
    skip_ws ();
    if !pos < n then line.[!pos] else fail "unexpected end of input"
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match line.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match line.[!pos] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let parse_value () =
    match peek () with
    | '"' -> Str (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else fail "expected 'true'"
    | 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "expected 'false'"
    | '[' ->
        incr pos;
        let items = ref [] in
        if peek () = ']' then incr pos
        else begin
          let rec go () =
            items := int_of_float (parse_number ()) :: !items;
            match peek () with
            | ',' ->
                incr pos;
                go ()
            | ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          go ()
        end;
        Ints (List.rev !items)
    | _ -> Num (parse_number ())
  in
  let fields = ref [] in
  expect '{';
  if peek () = '}' then incr pos
  else begin
    let rec go () =
      let k = parse_string () in
      expect ':';
      fields := (k, parse_value ()) :: !fields;
      match peek () with
      | ',' ->
          incr pos;
          go ()
      | '}' -> incr pos
      | _ -> fail "expected ',' or '}'"
    in
    go ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing garbage after object";
  List.rev !fields

let get t k =
  match List.assoc_opt k t with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" k))

let num t k =
  match get t k with
  | Num f -> f
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected a number" k))

let int t k = int_of_float (num t k)

let bool t k =
  match get t k with
  | Bool b -> b
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected a bool" k))

let str t k =
  match get t k with
  | Str s -> s
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected a string" k))

let ints t k =
  match get t k with
  | Ints l -> l
  | _ ->
      raise (Parse_error (Printf.sprintf "field %S: expected an int array" k))

let mem t k = List.mem_assoc k t
