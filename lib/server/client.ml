module E = Vadasa_base.Error
module Retry = Vadasa_resilience.Retry

let find_crlf2 s =
  let n = String.length s in
  let rec go i =
    if i + 4 > n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let client_error fmt =
  Printf.ksprintf
    (fun message -> raise (E.Error (E.make ~code:"client.io" E.Io message)))
    fmt

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      client_error "cannot resolve host %s" host
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found -> client_error "cannot resolve host %s" host)

let request ~host ~port ~meth ~target ?(headers = []) ?(body = "") () =
  let addr = Unix.ADDR_INET (resolve_host host, port) in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match Unix.connect fd addr with
      | () -> ()
      | exception Unix.Unix_error (err, _, _) ->
        client_error "cannot connect to %s:%d: %s" host port
          (Unix.error_message err));
      let buf = Buffer.create (String.length body + 256) in
      Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
        (("host", host) :: headers);
      Buffer.add_string buf
        (Printf.sprintf "content-length: %d\r\n\r\n" (String.length body));
      Buffer.add_string buf body;
      let raw = Buffer.to_bytes buf in
      let off = ref 0 in
      while !off < Bytes.length raw do
        off := !off + Unix.write fd raw !off (Bytes.length raw - !off)
      done;
      (* the server always closes: read to EOF *)
      let resp = Buffer.create 1024 in
      let chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes resp chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      let raw = Buffer.contents resp in
      if raw = "" then client_error "empty response from %s:%d" host port;
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:0
        | _ -> 0
      in
      let head, body =
        match find_crlf2 raw with
        | Some i ->
          ( String.sub raw 0 i,
            String.sub raw (i + 4) (String.length raw - i - 4) )
        | None -> (raw, "")
      in
      (* Response headers, names lowercased — the retry loop reads
         Retry-After out of these. *)
      let resp_headers =
        List.filter_map
          (fun line ->
            match String.index_opt line ':' with
            | None -> None
            | Some i ->
              Some
                ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)) ))
          (String.split_on_char '\n'
             (String.concat "" (String.split_on_char '\r' head)))
      in
      (status, resp_headers, body))

let retry_policy =
  {
    Retry.default_policy with
    Retry.max_attempts = 4;
    base_delay = 0.2;
    budget = 15.0;
  }

let request_retrying ~host ~port ~meth ~target ?headers ?body () =
  Retry.run ~policy:retry_policy
    ~should_retry:(fun ~attempt:_ -> function
      | E.Error e when e.E.code = "client.unavailable" ->
        Some
          (Option.bind
             (List.assoc_opt "retry_after_s" e.E.context)
             float_of_string_opt)
      | _ -> None)
    (fun () ->
      let status, resp_headers, resp_body =
        request ~host ~port ~meth ~target ?headers ?body ()
      in
      if status = 503 || status = 429 then
        raise
          (E.Error
             (E.make ~code:"client.unavailable" E.Resource
                (Printf.sprintf "%s %s: HTTP %d from %s:%d" meth target
                   status host port)
                ~context:
                  (("status", string_of_int status)
                  ::
                  (match List.assoc_opt "retry-after" resp_headers with
                  | Some v -> [ ("retry_after_s", v) ]
                  | None -> []))));
      (status, resp_headers, resp_body))
