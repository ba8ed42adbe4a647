(** A deliberately tiny HTTP/1.1 client for talking to [vadasa serve]:
    one request per connection, which matches the server's
    connection-close discipline, so the CLI's registry and job
    subcommands and the end-to-end tests need no client library.

    Transport failures (unresolvable host, refused connection, empty
    response) raise {!Vadasa_base.Error.Error} with code [client.io]. *)

val request :
  host:string -> port:int -> meth:string -> target:string ->
  ?headers:(string * string) list -> ?body:string -> unit ->
  int * (string * string) list * string
(** [request ~host ~port ~meth ~target ()] sends one request (a [host]
    and a [content-length] header are always added) and reads the
    response to EOF. Returns the status code ([0] when the status line
    does not parse), the response headers with lowercased names and
    trimmed values, in order, and the body. *)

val request_retrying :
  host:string -> port:int -> meth:string -> target:string ->
  ?headers:(string * string) list -> ?body:string -> unit ->
  int * (string * string) list * string
(** {!request} honouring backpressure: a [503] (open breaker, full
    queue) or [429] (tenant quota, rate limit) re-issues the request
    under a jittered-backoff retry policy (4 attempts within 15 s),
    waiting the response's [Retry-After] when it advertises one.
    Exhaustion raises
    {!Vadasa_base.Error.Error} with code [client.unavailable] and the
    last status (and [retry_after_s], when advertised) in its context.
    Every other status returns to the caller. *)
