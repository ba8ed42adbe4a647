(** Typed error taxonomy.

    Every user-visible failure in the pipeline carries a stable
    machine-readable [code] (e.g. ["csv.ragged_row"]), a coarse
    [category] that callers map to an exit status or HTTP status, a
    human-readable [message] and a list of [context] key/value pairs
    (file, line, column, stratum, …).

    The categories and the HTTP mapping used by the server codec:

    - [Parse]      — the request/input envelope is malformed (400)
    - [Wardedness] — the payload is well-formed but semantically
                     invalid: program does not parse, is not warded or
                     stratifiable, unknown measure/method (422)
    - [Resource]   — a budget, queue or engine limit was hit (503)
    - [Io]         — the outside world failed: file system, sockets,
                     injected faults (500)
    - [Internal]   — a bug: invariants violated, unexpected exception
                     (500)

    See [docs/RESILIENCE.md] for the full code registry. *)

type category = Parse | Wardedness | Resource | Io | Internal

type t = {
  code : string;  (** stable machine-readable identifier, dotted *)
  category : category;
  message : string;  (** human-readable, one line *)
  context : (string * string) list;  (** e.g. [("file", …); ("line", …)] *)
}

exception Error of t
(** The single exception used to propagate typed errors. *)

val make :
  ?context:(string * string) list -> code:string -> category -> string -> t

val fail :
  ?context:(string * string) list -> code:string -> category -> string -> 'a
(** [fail ~code category message] raises {!Error}. *)

val get_ok : ('a, t) result -> 'a
(** The [Ok] value; an [Error e] is raised as {!Error}[ e]. *)

val failf :
  ?context:(string * string) list ->
  code:string ->
  category ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Like {!fail} with a format string for the message. *)

val add_context : t -> (string * string) list -> t
(** Appends context pairs (existing keys win — context closer to the
    failure site is more precise). *)

val context_value : t -> string -> string option

val category_to_string : category -> string
(** ["parse" | "wardedness" | "resource" | "io" | "internal"] *)

val category_of_string : string -> category option

val to_string : t -> string
(** ["code: message (k=v, k=v)"] — for logs and stderr. *)

val to_json : t -> Json.t
(** [{"code": …, "category": …, "message": …, "context": {…}}] *)
