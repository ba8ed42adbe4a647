type category = Parse | Wardedness | Resource | Io | Internal

type t = {
  code : string;
  category : category;
  message : string;
  context : (string * string) list;
}

exception Error of t

let make ?(context = []) ~code category message =
  { code; category; message; context }

let fail ?context ~code category message =
  raise (Error (make ?context ~code category message))

let get_ok = function Ok v -> v | Stdlib.Error e -> raise (Error e)

let failf ?context ~code category fmt =
  Format.kasprintf (fun message -> fail ?context ~code category message) fmt

let add_context t pairs =
  (* context recorded closer to the failure site stays first and wins
     on lookup *)
  let fresh = List.filter (fun (k, _) -> not (List.mem_assoc k t.context)) pairs in
  { t with context = t.context @ fresh }

let context_value t key = List.assoc_opt key t.context

let category_to_string = function
  | Parse -> "parse"
  | Wardedness -> "wardedness"
  | Resource -> "resource"
  | Io -> "io"
  | Internal -> "internal"

let category_of_string = function
  | "parse" -> Some Parse
  | "wardedness" -> Some Wardedness
  | "resource" -> Some Resource
  | "io" -> Some Io
  | "internal" -> Some Internal
  | _ -> None

let to_string t =
  let ctx =
    match t.context with
    | [] -> ""
    | pairs ->
      let kvs = List.map (fun (k, v) -> k ^ "=" ^ v) pairs in
      " (" ^ String.concat ", " kvs ^ ")"
  in
  Printf.sprintf "%s: %s%s" t.code t.message ctx

let to_json t =
  Json.Obj
    [
      ("code", Json.Str t.code);
      ("category", Json.Str (category_to_string t.category));
      ("message", Json.Str t.message);
      ("context", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.context));
    ]

let () =
  Printexc.register_printer (function
    | Error t -> Some ("Vadasa_base.Error.Error: " ^ to_string t)
    | _ -> None)
