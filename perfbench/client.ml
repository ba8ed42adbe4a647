(* A minimal HTTP/1.1 client over one reusable connection. It asks for
   keep-alive and reconnects whenever the server answers [Connection:
   close] (which [vadasa serve] does on every response today), so it
   measures whatever connection discipline the server offers. Bodies
   are framed by [Content-Length] only. *)

type t = { port : int; mutable fd : Unix.file_descr option }

type response = { status : int; body : string }

exception Http_error of string

let create port = { port; fd = None }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let connect c =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port))
   with e ->
     Unix.close fd;
     raise e);
  c.fd <- Some fd;
  fd

(* The request's wire form; the in-process replay parses the same bytes. *)
let raw ~meth ~target ?(content_type = "text/csv") body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\nconnection: keep-alive\r\n\
     content-type: %s\r\ncontent-length: %d\r\n\r\n%s"
    meth target content_type (String.length body) body

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let read_response fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let fill () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise (Http_error "connection closed mid-response")
    | n -> Buffer.add_subbytes buf chunk 0 n
  in
  let rec header_end from =
    match find_sub (Buffer.contents buf) "\r\n\r\n" from with
    | Some i -> i
    | None ->
      let seen = Buffer.length buf in
      fill ();
      header_end (max 0 (seen - 3))
  in
  let hend = header_end 0 in
  let head = Buffer.sub buf 0 hend in
  let lines = String.split_on_char '\n' head in
  let status =
    match String.split_on_char ' ' (List.hd lines) with
    | _ :: code :: _ -> (
      match int_of_string_opt (String.trim code) with
      | Some s -> s
      | None -> raise (Http_error "bad status line"))
    | _ -> raise (Http_error "bad status line")
  in
  let header name =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i
          when String.lowercase_ascii (String.trim (String.sub line 0 i)) = name ->
          Some
            (String.lowercase_ascii
               (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
        | _ -> None)
      (List.tl lines)
  in
  let length =
    match Option.bind (header "content-length") int_of_string_opt with
    | Some n -> n
    | None -> raise (Http_error "response without content-length")
  in
  while Buffer.length buf < hend + 4 + length do
    fill ()
  done;
  let body = Buffer.sub buf (hend + 4) length in
  ({ status; body }, header "connection" = Some "close")

let send c request =
  let fd = match c.fd with Some fd -> fd | None -> connect c in
  match
    write_all fd request 0;
    read_response fd
  with
  | resp, closing ->
    if closing then close c;
    resp
  | exception e ->
    close c;
    raise e
