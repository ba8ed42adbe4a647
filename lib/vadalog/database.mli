(** The fact store: facts per predicate, in insertion order, with duplicate
    elimination, lazily-built positional indexes and optional provenance.

    Fact identity is {!Vadasa_base.Value.equal}, argument by argument:
    [Int 1], [Float 1.] and [Str "1"] are three facts, and floats
    compare exactly ([0.] and [-0.] are one value, as are all NaNs).

    Insertion order is what the semi-naive evaluator's deltas are defined
    over: facts with index ≥ a watermark are "new".

    {b Thread-safety contract.} A database is {e single-writer}: {!add}
    (and anything that calls it) must come from at most one domain at a
    time, with no concurrent readers. Once the store is {e quiescent} —
    no further {!add} calls — any number of domains may concurrently
    call the read-side operations ({!mem}, {!facts}, {!nth},
    {!iter_pred}, {!lookup}, {!provenance_of}, …). {!lookup} stays safe
    even though it builds positional indexes lazily: each index table is
    fully built before being published through an atomic compare-and-set
    of an immutable position → index map, so a concurrent reader sees
    either no index (and builds its own candidate; CAS losers are
    discarded) or a complete one, never a partially-built table. *)

type provenance =
  | Edb  (** asserted input fact *)
  | Derived of {
      rule_id : int;
      rule_label : string;
      parents : (string * Vadasa_base.Value.t array) list;
    }

type t

val create : ?track_provenance:bool -> unit -> t
(** An empty store. [track_provenance] (default [true]) keeps the
    {!provenance} of every fact, so explanations ({!provenance_of})
    work; the engine passes its own setting. *)

val add : t -> ?prov:provenance -> string -> Vadasa_base.Value.t array -> bool
(** [true] when the fact was new. Default provenance is [Edb]. The
    store keeps [args] itself (no copy): callers must not mutate it
    afterwards. Write-side: subject to the single-writer contract above. *)

val mem : t -> string -> Vadasa_base.Value.t array -> bool
(** Membership under fact identity (labelled nulls compare by label).
    Read-side: safe from any domain on a quiescent store — the parallel
    chase's workers probe it concurrently for negated atoms while the
    store is frozen. *)

val pred_size : t -> string -> int
(** Number of facts of a predicate (0 for unknown predicates). *)

val nth : t -> string -> int -> Vadasa_base.Value.t array
(** Fact by insertion index. *)

val facts : t -> string -> Vadasa_base.Value.t array list
(** All facts of a predicate, in insertion order. *)

val iter_pred : t -> string -> (Vadasa_base.Value.t array -> unit) -> unit
(** Iterate a predicate's facts in insertion order without building the
    intermediate list of {!facts}. This is the scan the semi-naive
    evaluator's delta ranges are defined over — and what the parallel
    evaluator's workers run concurrently on a quiescent store. *)

val lookup : t -> string -> pos:int -> Vadasa_base.Value.t -> int list
(** Insertion indexes of facts whose argument at [pos] equals the value
    (standard equality); builds the positional index on first use and
    maintains it afterwards. Safe to call from multiple domains on a
    quiescent store (see the thread-safety contract above). *)

val build_all_indexes : ?pool:Vadasa_base.Task_pool.t -> t -> string -> unit
(** Eagerly build the positional index of every argument position of a
    predicate (no-op for unknown predicates and already-indexed
    positions). Callers that publish a quiescent store to concurrent
    readers can use this to pre-pay index construction. With [pool],
    the missing positions build as parallel tasks — index construction
    is read-only until each table's atomic publication, so concurrent
    builders are safe (CAS losers are discarded, as under {!lookup}). *)

val total : t -> int
(** Facts across all predicates — the number the engine's fact-ceiling
    budget counts against. *)

val predicates : t -> string list
(** Every predicate with at least one fact, sorted. *)

val provenance_of : t -> string -> Vadasa_base.Value.t array -> provenance option
(** [None] when the fact is absent or provenance tracking is off. *)
