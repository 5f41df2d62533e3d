(** Minimal JSON tree, writer and reader.

    The single serialization point for every machine-readable output
    the stack produces (Chrome traces, flat metrics, profiler
    reports): values are built as trees and written with proper string
    escaping and no trailing commas, instead of ad-hoc [Printf]
    formatting at each call site. A small recursive-descent reader is
    included so tests and tools can validate emitted output
    round-trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- constructors --- *)

let str s = Str s
let int n = Int n
let float f = Float f
let bool b = Bool b
let list l = List l
let obj fields = Obj fields

(* --- writer --- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(** Floats must serialize to valid JSON numbers: non-finite values
    become [null], and finite values always carry enough digits to
    round-trip. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else
    (* shortest representation that still round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec write buf (v : t) =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> add_float buf f
  | Str s -> add_escaped buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          write buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(** Indented writer for human-inspected files. *)
let rec write_indented buf ~indent (v : t) =
  let pad n = String.make n ' ' in
  match v with
  | List (_ :: _ as l) ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          write_indented buf ~indent:(indent + 2) x)
        l;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj (_ :: _ as fields) ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          add_escaped buf k;
          Buffer.add_string buf ": ";
          write_indented buf ~indent:(indent + 2) x)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'
  | v -> write buf v

let to_string_pretty v =
  let buf = Buffer.create 256 in
  write_indented buf ~indent:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)

let to_file path v = Pgpu_support.Util.write_file path (to_string_pretty v)

(* --- reader --- *)

exception Parse_error of string

let parse_fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_fail "at %d: expected %C, found %C" c.pos ch x
  | None -> parse_fail "at %d: expected %C, found end of input" c.pos ch

let parse_literal c lit (v : t) =
  if
    c.pos + String.length lit <= String.length c.s
    && String.sub c.s c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    v
  end
  else parse_fail "at %d: invalid literal" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char buf (Option.get (peek c));
            advance c;
            go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then parse_fail "truncated \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> parse_fail "bad \\u escape %S" hex
            in
            c.pos <- c.pos + 4;
            (* decode only the code points our writer emits (< 0x20
               controls); others are stored as UTF-8 of the scalar *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> parse_fail "at %d: bad escape" c.pos)
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek c with Some ch when is_num_char ch -> true | _ -> false) do
    advance c
  done;
  let s = String.sub c.s start (c.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> parse_fail "at %d: invalid number %S" start s)

let rec parse_value c : t =
  skip_ws c;
  match peek c with
  | None -> parse_fail "unexpected end of input"
  | Some 'n' -> parse_literal c "null" Null
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | Some ch -> parse_fail "at %d: unexpected %C" c.pos ch

let of_string s : (t, string) result =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error (Fmt.str "trailing input at %d" c.pos) else Ok v
  | exception Parse_error m -> Error m

(* --- accessors (used by tests and tools) --- *)

let member k v = match v with Obj fields -> List.assoc_opt k fields | _ -> None

let equal a b =
  let rec eq a b =
    match (a, b) with
    | Null, Null -> true
    | Bool x, Bool y -> x = y
    | Int x, Int y -> x = y
    | Float x, Float y -> (Float.is_nan x && Float.is_nan y) || Float.equal x y
    | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
    | Str x, Str y -> String.equal x y
    | List x, List y -> List.length x = List.length y && List.for_all2 eq x y
    | Obj x, Obj y ->
        List.length x = List.length y
        && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && eq v1 v2) x y
    | _ -> false
  in
  eq a b
