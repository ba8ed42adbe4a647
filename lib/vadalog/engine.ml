module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids
module Budget = Vadasa_base.Budget
module Task_pool = Vadasa_base.Task_pool
module Telemetry = Vadasa_telemetry.Telemetry
module Faultpoint = Vadasa_resilience.Faultpoint

let log_src = Logs.Src.create "vadasa.engine" ~doc:"chase evaluation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  track_provenance : bool;
  max_iterations : int;
  max_facts : int;
}

let default_config =
  { track_provenance = true; max_iterations = 100_000; max_facts = 10_000_000 }

exception Limit of string

(* ---- parallel-evaluation tuning constants ----------------------------- *)

(* Chunks are sized by estimated join work (scanned facts), not fact
   counts: a delta fact of a band self-join costs a full inner scan
   while a delta fact of an indexed closure step costs a handful of
   probes, and fixed-count chunks made the latter pay fork-join
   overhead for microseconds of work. The estimate is a per-rule EWMA
   of scanned-facts-per-delta-fact ([c_spd]) fed back from completed
   evaluations. *)
let target_chunk_scans = 16_384
(* Estimated scans per chunk a worker should receive: big enough to
   amortize task dispatch + scratch acquisition, small enough to keep
   [domains * 4] chunks available for load balancing. *)

let min_parallel_scans = 2 * target_chunk_scans
(* A batch whose total estimated work is below this runs inline — the
   fork-join + merge machinery costs more than the join itself (the old fixed-count policy made tiny strata slower at
   4 domains than at 1). *)

let min_chunk_facts = 64
(* Floor on chunk granularity in facts, so the capture/replay overhead
   per fact stays bounded even when [c_spd] estimates huge per-fact
   cost. *)

let spd_init = 64.0
(* Scanned-per-delta-fact estimate for a rule that has never been
   measured: assume moderately expensive, so first iterations of big
   deltas parallelize and the measured rate takes over from there. *)

type interrupt = {
  reason : Budget.reason;
  stratum : int;  (* stratum being evaluated when the budget ran out *)
  iteration : int;  (* fixpoint iteration within that stratum *)
  facts_derived : int;  (* facts derived so far, = [stats.facts_derived] *)
}

exception Interrupted of interrupt

(* The per-stratum fixpoint state a chase resumes from: the semi-naive
   watermarks ([seen]) each stratum ended with, plus the sizes of the
   predicates whose growth falsifies the stratum's previous fixpoint
   (negated atoms, aggregate-binding inputs). All sizes are captured
   once the run is saturated — every producer of a predicate lives at
   that predicate's own stratum, so the saturated size equals the size
   the stratum observed at its fixpoint. A from-scratch run resumes
   from [cold]: no watermarks, no guards, nothing saturated. *)
module Snapshot = struct
  type stratum = {
    sn_seen : (string * int) list;
        (* predicates the stratum's semi-naive loop scans -> watermark *)
    sn_guards : (string * int) list;
        (* predicates whose growth invalidates the stratum -> size *)
    sn_saturated : bool;
        (* the stratum reached its fixpoint: its aggregate-binding and
           zero-atom rules' heads are in the database and its test
           rules' contributor tables are complete *)
  }

  let cold = { sn_seen = []; sn_guards = []; sn_saturated = false }

  type t = {
    sn_strata : stratum array;  (* one entry per stratification stratum *)
    sn_total : int;  (* Database.total at capture time *)
  }

  let total t = t.sn_total
end

exception Invalidated of string

(* A compiled body literal. Atom terms are pre-extracted. *)
type step =
  | S_atom of { pred : string; terms : Term.t array }
  | S_neg of { pred : string; terms : Term.t array }
  | S_guard of Expr.t
  | S_assign of string * Expr.t

type compiled_rule = {
  rule : Rule.t;
  pos_atoms : (string * Term.t array) array;  (* in source order *)
  agg : Rule.agg option;
  frontier : string list;
  existentials : string list;
  group_vars : string list;
      (* for aggregate rules: head variables bound during the join phase —
         the aggregation group key *)
  post : step array;
      (* assignments/guards that depend on the aggregate's bound result,
         evaluated per group after aggregation *)
  (* plans.(k) = literal schedule with positive atom [k] first (the delta
     atom); plans.(n) = schedule for "no delta restriction". *)
  plans : step array array;
  c_prof : Profile.rule;  (* hot-path cost accumulator (see Profile) *)
  c_span : string;  (* "engine.rule.<label>" *)
  c_preds : string list;  (* distinct positive body predicates *)
  c_heads : string list;  (* distinct head predicates *)
  c_plan_reads : string list array;
      (* c_plan_reads.(k) = predicates plan k reads outside its delta atom
         (inner positive atoms + negated atoms). A (rule, plan) pair whose
         heads intersect these reads is not snapshot-safe: its inner scans
         must see its own emissions live, so it evaluates sequentially. *)
  c_capture : string array;
      (* variables a parallel worker must capture per body binding to
         replay head emission later: frontier ∪ head-argument variables,
         minus existentials (those are invented at merge time) *)
  c_spd : float array;
      (* c_spd.(k): EWMA of scanned facts per delta fact of plan k —
         the cost model behind adaptive chunk sizing. Per plan, not per
         rule: the delta-on-path plan of a closure rule costs a few
         probes per delta fact while its delta-on-edge plan replays
         whole join subtrees, and one shared estimate would let the
         expensive plan poison the cheap one's. Coordinator-only
         state: updated after each completed evaluation, read when
         planning the next batch. It steers granularity, never
         results, so byte-identity is unaffected by its value. *)
}

type group = {
  state : Aggregate.state;
  snapshot : (string * Value.t) list;  (* frontier bindings of the group *)
}

type stats = {
  strata_run : int;
  iterations : int;
  facts_derived : int;
  duplicates_suppressed : int;
  agg_groups_created : int;
  nulls_created : int;
}

(* Where a labelled null came from: the Skolem term sk(rule, var,
   frontier binding) it stands for. Recorded for every null the chase
   invents, so two runs that invent "the same" null under different
   labels (an incremental continuation vs. a from-scratch chase) can be
   compared modulo label renaming — see [Canonical]. *)
type null_origin = {
  origin_rule : int;  (* rule id that introduced the null *)
  origin_var : string;  (* the existential variable *)
  origin_frontier : (string * Value.t) list;
      (* frontier variable bindings, in frontier order; values may
         themselves be labelled nulls (nested Skolem terms) *)
}

type binding_ctx = {
  env : (string, Value.t) Hashtbl.t;
  mutable parents : (string * Value.t array) list;
}

(* ---- parallel-evaluation worker scratch ------------------------------- *)

type emission = {
  e_vals : Value.t array;  (* values of [c_capture], same order *)
  e_parents : (string * Value.t array) list;
      (* as ctx.parents: reverse match order *)
}

let no_emission = { e_vals = [||]; e_parents = [] }

(* Worker-local profiler counters: summed into the rule's shared
   accumulator at merge time, keeping the shared record single-writer. *)
let scratch_prof () =
  {
    Profile.r_label = "";
    r_stratum = 0;
    r_evals = 0;
    r_time = 0.0;
    r_scanned = 0;
    r_matched = 0;
    r_bindings = 0;
    r_derived = 0;
    r_duplicates = 0;
    r_nulls = 0;
    r_groups = 0;
  }

(* Reusable per-worker join state, banked in a [Joinstate.t] so chunks
   stop allocating (and minor-GC-syncing every domain over) a fresh
   environment, buffer and profiler shard each. *)
type wscratch = {
  ws_ctx : binding_ctx;
  ws_prof : Profile.rule;
  mutable ws_emits : emission array;  (* grow-only emission buffer *)
  mutable ws_n : int;  (* live prefix of [ws_emits] *)
}

let ws_make () =
  {
    ws_ctx = { env = Hashtbl.create 64; parents = [] };
    ws_prof = scratch_prof ();
    ws_emits = Array.make 64 no_emission;
    ws_n = 0;
  }

(* Restore a scratch to a state indistinguishable from [ws_make ()]:
   byte-identity of parallel runs relies on reuse carrying nothing
   across chunks (see Joinstate's contract). The buffer's capacity is
   kept — that is the point — but its live prefix is cleared so parked
   scratch doesn't pin dead facts against the GC. *)
let ws_reset ws =
  Hashtbl.reset ws.ws_ctx.env;
  ws.ws_ctx.parents <- [];
  Array.fill ws.ws_emits 0 ws.ws_n no_emission;
  ws.ws_n <- 0;
  let p = ws.ws_prof in
  p.Profile.r_evals <- 0;
  p.Profile.r_time <- 0.0;
  p.Profile.r_scanned <- 0;
  p.Profile.r_matched <- 0;
  p.Profile.r_bindings <- 0;
  p.Profile.r_derived <- 0;
  p.Profile.r_duplicates <- 0;
  p.Profile.r_nulls <- 0;
  p.Profile.r_groups <- 0

let ws_push ws e =
  let cap = Array.length ws.ws_emits in
  if ws.ws_n >= cap then begin
    let grown = Array.make (2 * cap) no_emission in
    Array.blit ws.ws_emits 0 grown 0 ws.ws_n;
    ws.ws_emits <- grown
  end;
  ws.ws_emits.(ws.ws_n) <- e;
  ws.ws_n <- ws.ws_n + 1

type t = {
  program : Program.t;
  config : config;
  db : Database.t;
  strat : Stratify.t;
  ids : Ids.t;
  skolem : (int, (string * Value.t) list Value.Array_tbl.t) Hashtbl.t;
      (* rule id -> frontier values -> invented nulls *)
  null_origins : (int, null_origin) Hashtbl.t;  (* null label -> Skolem term *)
  agg_groups : (int, group Value.Array_tbl.t) Hashtbl.t;
      (* rule id -> group-variable values -> group *)
  compiled : (int, compiled_rule) Hashtbl.t;
  (* Always-on chase statistics: cheap enough to keep unconditionally,
     they make Limit errors diagnosable and feed the telemetry report. *)
  pred_derived : (string, int ref) Hashtbl.t;
  prof : Profile.t;
  pool : Task_pool.t option;  (* None = fully sequential evaluation *)
  pool_owned : bool;  (* created by us (shutdown stops it) vs borrowed *)
  scratch : wscratch Joinstate.t;  (* reusable worker join state *)
  mutable s_stratum : int;  (* stratum currently evaluating *)
  mutable s_iteration : int;  (* fixpoint iteration within it *)
  mutable s_strata_run : int;
  mutable s_iterations : int;
  mutable s_derived : int;
  mutable s_duplicates : int;
  mutable s_agg_groups : int;
}

(* ---- compilation ------------------------------------------------------ *)

let literal_steps body =
  List.filter_map
    (function
      | Rule.Pos atom ->
        (match Atom.as_terms atom with
        | Some terms -> Some (`Pos (atom.Atom.pred, terms))
        | None -> invalid_arg "Engine: non-term body atom (validate first)")
      | Rule.Neg atom ->
        (match Atom.as_terms atom with
        | Some terms -> Some (`Neg (atom.Atom.pred, terms))
        | None -> invalid_arg "Engine: non-term negated atom")
      | Rule.Guard e -> Some (`Guard e)
      | Rule.Assign (x, e) -> Some (`Assign (x, e))
      | Rule.Agg _ -> None)
    body

let term_vars terms =
  Array.to_list terms
  |> List.filter_map (function Term.Var v -> Some v | Term.Const _ -> None)

(* Greedy left-deep schedule. [first] is the index of the delta atom among
   the positive atoms, or none for an unrestricted schedule. Returns the
   scheduled steps plus the guard/assignment literals that could not be
   placed (they depend on an aggregate's bound result and run post-group). *)
let schedule literals ~first =
  let items = Array.of_list literals in
  let n = Array.length items in
  let used = Array.make n false in
  let bound = Hashtbl.create 16 in
  let bind_vars vars = List.iter (fun v -> Hashtbl.replace bound v ()) vars in
  let all_bound vars = List.for_all (Hashtbl.mem bound) vars in
  let out = ref [] in
  let take i =
    used.(i) <- true;
    (match items.(i) with
    | `Pos (pred, terms) ->
      bind_vars (term_vars terms);
      out := S_atom { pred; terms } :: !out
    | `Neg (pred, terms) -> out := S_neg { pred; terms } :: !out
    | `Guard e -> out := S_guard e :: !out
    | `Assign (x, e) ->
      Hashtbl.replace bound x ();
      out := S_assign (x, e) :: !out)
  in
  (* Position of the k-th positive atom in the literal array. *)
  let pos_positions =
    Array.of_list
      (List.filteri (fun _ _ -> true)
         (List.concat
            (List.mapi
               (fun i item ->
                 match item with `Pos _ -> [ i ] | _ -> [])
               (Array.to_list items))))
  in
  (match first with
  | Some k when k < Array.length pos_positions -> take pos_positions.(k)
  | Some _ | None -> ());
  let remaining () = Array.exists (fun u -> not u) used in
  while remaining () do
    (* 1. Cheap literals whose dependencies are satisfied. *)
    let progressed = ref false in
    Array.iteri
      (fun i item ->
        if not used.(i) then
          match item with
          | `Assign (_, e) when all_bound (Expr.vars e) ->
            take i;
            progressed := true
          | `Guard e when all_bound (Expr.vars e) ->
            take i;
            progressed := true
          | `Neg (_, terms) when all_bound (term_vars terms) ->
            take i;
            progressed := true
          | _ -> ())
      items;
    if not !progressed then begin
      (* 2. The positive atom sharing the most bound variables. *)
      let best = ref (-1) in
      let best_score = ref (-1) in
      Array.iteri
        (fun i item ->
          if not used.(i) then
            match item with
            | `Pos (_, terms) ->
              let vars = term_vars terms in
              let score =
                List.length (List.filter (Hashtbl.mem bound) vars)
              in
              if score > !best_score then begin
                best := i;
                best_score := score
              end
            | _ -> ())
        items;
      if !best >= 0 then take !best
      else
        invalid_arg
          "Engine: cannot schedule rule body (unbound guard or negation)"
    end
  done;
  Array.of_list (List.rev !out)

let compile_rule prof rule =
  let literals = literal_steps rule.Rule.body in
  let agg = Rule.the_agg rule in
  (* Split off guard/assignment literals that cannot be evaluated before the
     aggregate binds its result variable: they form the post-group phase. *)
  let pre_bound = Hashtbl.create 16 in
  List.iter
    (function
      | `Pos (_, terms) ->
        List.iter (fun v -> Hashtbl.replace pre_bound v ()) (term_vars terms)
      | _ -> ())
    literals;
  let assigns =
    List.filter_map (function `Assign (x, e) -> Some (x, e) | _ -> None) literals
  in
  let fixpoint () =
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun (x, e) ->
          if
            (not (Hashtbl.mem pre_bound x))
            && List.for_all (Hashtbl.mem pre_bound) (Expr.vars e)
          then begin
            Hashtbl.replace pre_bound x ();
            progress := true
          end)
        assigns
    done
  in
  fixpoint ();
  let placeable_pre = Hashtbl.copy pre_bound in
  let is_pre = function
    | `Pos _ | `Neg _ -> true
    | `Guard e -> List.for_all (Hashtbl.mem placeable_pre) (Expr.vars e)
    | `Assign (x, _) -> Hashtbl.mem placeable_pre x
  in
  let pre_literals, post_literals =
    match agg with
    | Some { Rule.agg_result = Rule.Bind x; _ } ->
      let pre, post = List.partition is_pre literals in
      Hashtbl.replace pre_bound x ();
      fixpoint ();
      (pre, post)
    | Some { Rule.agg_result = Rule.Test _; _ } | None -> (literals, [])
  in
  (* Order the post phase by assignment dependencies. *)
  let post_steps =
    let remaining = ref post_literals in
    let placed = ref [] in
    let bound = Hashtbl.copy placeable_pre in
    (match agg with
    | Some { Rule.agg_result = Rule.Bind x; _ } -> Hashtbl.replace bound x ()
    | _ -> ());
    let guard_budget = ref (List.length post_literals + 1) in
    while !remaining <> [] && !guard_budget > 0 do
      decr guard_budget;
      let ready, blocked =
        List.partition
          (function
            | `Guard e -> List.for_all (Hashtbl.mem bound) (Expr.vars e)
            | `Assign (_, e) -> List.for_all (Hashtbl.mem bound) (Expr.vars e)
            | `Pos _ | `Neg _ -> false)
          !remaining
      in
      List.iter
        (function
          | `Guard e -> placed := S_guard e :: !placed
          | `Assign (x, e) ->
            Hashtbl.replace bound x ();
            placed := S_assign (x, e) :: !placed
          | `Pos _ | `Neg _ -> ())
        ready;
      remaining := blocked;
      if ready = [] && blocked <> [] then
        invalid_arg
          ("Engine: cannot schedule post-aggregation literals of rule "
          ^ rule.Rule.label)
    done;
    Array.of_list (List.rev !placed)
  in
  let pos_atoms =
    Array.of_list
      (List.filter_map
         (function `Pos (p, ts) -> Some (p, ts) | _ -> None)
         pre_literals)
  in
  let n = Array.length pos_atoms in
  let plans =
    Array.init (n + 1) (fun k ->
        schedule pre_literals ~first:(if k < n then Some k else None))
  in
  let group_vars =
    match agg with
    | Some _ ->
      List.filter (Hashtbl.mem placeable_pre) (Rule.head_vars rule)
    | None -> []
  in
  let frontier = Rule.frontier_vars rule in
  let existentials = Rule.existential_vars rule in
  let plan_reads =
    Array.map
      (fun plan ->
        let acc = ref [] in
        Array.iteri
          (fun i step ->
            match step with
            | S_atom { pred; _ } when i > 0 -> acc := pred :: !acc
            | S_neg { pred; _ } -> acc := pred :: !acc
            | S_atom _ | S_guard _ | S_assign _ -> ())
          plan;
        List.sort_uniq compare !acc)
      plans
  in
  let head_arg_vars =
    List.concat_map
      (fun atom ->
        Array.to_list atom.Atom.args |> List.concat_map Expr.vars)
      rule.Rule.head
  in
  let capture =
    List.sort_uniq compare (frontier @ head_arg_vars)
    |> List.filter (fun v -> not (List.mem v existentials))
    |> Array.of_list
  in
  {
    rule;
    pos_atoms;
    agg;
    frontier;
    existentials;
    group_vars;
    post = post_steps;
    plans;
    c_prof = Profile.register prof ~label:rule.Rule.label;
    c_span = "engine.rule." ^ rule.Rule.label;
    c_preds =
      Array.to_list (Array.map fst pos_atoms) |> List.sort_uniq compare;
    c_heads =
      List.map (fun atom -> atom.Atom.pred) rule.Rule.head
      |> List.sort_uniq compare;
    c_plan_reads = plan_reads;
    c_capture = capture;
    c_spd = Array.make (Array.length plans) spd_init;
  }

(* ---- construction ----------------------------------------------------- *)

let create ?(config = default_config) ?(first_null_label = 1) ?strat
    ?(domains = 1) ?pool program =
  (match Program.validate program with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Engine.create: " ^ String.concat "; " errors));
  if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
  (* Oversubscribing a host costs real time under OCaml 5 (every minor
     collection synchronizes all running domains), so the requested
     parallelism is clamped to what the host can actually run —
     [Task_pool.recommended] honors cgroup/affinity limits, so a
     container pinned to one core evaluates sequentially no matter what
     [~domains] asks for. An explicit [~pool] is never clamped: callers
     that must exercise the parallel machinery regardless (tests,
     experiments) borrow one. *)
  let domains = Task_pool.effective ~requested:domains in
  let pool, pool_owned =
    match pool with
    | Some p -> (Some p, false)
    | None when domains > 1 ->
      ( Some
          (Task_pool.create ~name:"engine"
             ~on_wait:(fun dt -> Telemetry.observe "pool.wait" dt)
             ~domains ()),
        true )
    | None -> (None, false)
  in
  let strat =
    match strat with Some s -> s | None -> Stratify.compute program
  in
  let db = Database.create ~track_provenance:config.track_provenance () in
  List.iter
    (fun (pred, args) -> ignore (Database.add db pred args))
    program.Program.facts;
  let prof = Profile.create () in
  let compiled = Hashtbl.create 64 in
  List.iter
    (fun rule -> Hashtbl.replace compiled rule.Rule.id (compile_rule prof rule))
    program.Program.rules;
  {
    program;
    config;
    db;
    strat;
    ids = Ids.create ~start:first_null_label ();
    skolem = Hashtbl.create 16;
    null_origins = Hashtbl.create 256;
    agg_groups = Hashtbl.create 16;
    compiled;
    pred_derived = Hashtbl.create 32;
    prof;
    pool;
    pool_owned;
    scratch = Joinstate.create ~make:ws_make ~reset:ws_reset;
    s_stratum = 0;
    s_iteration = 0;
    s_strata_run = 0;
    s_iterations = 0;
    s_derived = 0;
    s_duplicates = 0;
    s_agg_groups = 0;
  }

let add_fact_array t pred args = ignore (Database.add t.db pred args)

let add_fact t pred args = add_fact_array t pred (Array.of_list args)

let parallelism t =
  match t.pool with None -> 1 | Some pool -> Task_pool.domains pool

let shutdown t = if t.pool_owned then Option.iter Task_pool.stop t.pool

(* ---- evaluation ------------------------------------------------------- *)

(* Rule validation guarantees these bindings, so a miss is an engine bug. *)
let bound env v =
  match Hashtbl.find_opt env v with
  | Some value -> value
  | None -> invalid_arg ("Engine: unbound variable " ^ v)

let term_value env = function Term.Const c -> c | Term.Var v -> bound env v

let env_values env vars = Array.of_list (List.map (bound env) vars)

(* The per-rule table of a Skolem memo or of aggregation groups. *)
let rule_table tables rule_id =
  match Hashtbl.find_opt tables rule_id with
  | Some table -> table
  | None ->
    let table = Value.Array_tbl.create 64 in
    Hashtbl.add tables rule_id table;
    table

(* Match [fact] against [terms] under the context's environment; on success
   call [k] and undo trail afterwards; returns unit. *)
let match_terms ctx terms fact k =
  if Array.length fact <> Array.length terms then ()
  else begin
    let trail = ref [] in
    let ok = ref true in
    (try
       Array.iteri
         (fun i term ->
           match term with
           | Term.Const c ->
             if not (Value.equal c fact.(i)) then raise Exit
           | Term.Var v ->
             (match Hashtbl.find_opt ctx.env v with
             | Some bound -> if not (Value.equal bound fact.(i)) then raise Exit
             | None ->
               Hashtbl.replace ctx.env v fact.(i);
               trail := v :: !trail))
         terms
     with Exit -> ok := false);
    if !ok then k ();
    List.iter (Hashtbl.remove ctx.env) !trail
  end

(* Candidate fact indexes for an atom: delta range for the first step when
   given, otherwise an index lookup on some bound position, otherwise a
   scan. *)
let candidates t ctx pred terms ~delta =
  match delta with
  | Some (lo, hi) -> `Range (lo, hi)
  | None ->
    let bound_pos = ref None in
    Array.iteri
      (fun i term ->
        if !bound_pos = None then
          match term with
          | Term.Const c -> bound_pos := Some (i, c)
          | Term.Var v ->
            (match Hashtbl.find_opt ctx.env v with
            | Some value -> bound_pos := Some (i, value)
            | None -> ()))
      terms;
    (match !bound_pos with
    | Some (pos, value) -> `List (Database.lookup t.db pred ~pos value)
    | None -> `Range (0, Database.pred_size t.db pred))

let run_plan t plan ~delta_range ~prof ~poll ctx ~on_binding =
  let steps = plan in
  let n = Array.length steps in
  let rec exec i =
    if i >= n then begin
      prof.Profile.r_bindings <- prof.Profile.r_bindings + 1;
      on_binding ()
    end
    else
      match steps.(i) with
      | S_atom { pred; terms } ->
        let delta = if i = 0 then delta_range else None in
        let visit idx =
          prof.Profile.r_scanned <- prof.Profile.r_scanned + 1;
          if prof.Profile.r_scanned land 4095 = 0 then poll ();
          let fact = Database.nth t.db pred idx in
          match_terms ctx terms fact (fun () ->
              prof.Profile.r_matched <- prof.Profile.r_matched + 1;
              if t.config.track_provenance then begin
                let saved = ctx.parents in
                ctx.parents <- (pred, fact) :: saved;
                exec (i + 1);
                ctx.parents <- saved
              end
              else exec (i + 1))
        in
        (match candidates t ctx pred terms ~delta with
        | `Range (lo, hi) ->
          for idx = lo to hi - 1 do
            visit idx
          done
        | `List idxs -> List.iter visit idxs)
      | S_neg { pred; terms } ->
        let args = Array.map (term_value ctx.env) terms in
        if not (Database.mem t.db pred args) then exec (i + 1)
      | S_guard e -> if Expr.eval_bool ctx.env e then exec (i + 1)
      | S_assign (x, e) ->
        let value = Expr.eval ctx.env e in
        (match Hashtbl.find_opt ctx.env x with
        | Some bound -> if Value.equal bound value then exec (i + 1)
        | None ->
          Hashtbl.replace ctx.env x value;
          exec (i + 1);
          Hashtbl.remove ctx.env x)
  in
  exec 0

(* Book-keeping for every head emission: per-rule and per-predicate
   derivation counts plus the duplicate-suppression tally. *)
let record_derivation t cr pred added =
  let p = cr.c_prof in
  if added then begin
    t.s_derived <- t.s_derived + 1;
    p.Profile.r_derived <- p.Profile.r_derived + 1;
    match Hashtbl.find_opt t.pred_derived pred with
    | Some r -> incr r
    | None -> Hashtbl.add t.pred_derived pred (ref 1)
  end
  else begin
    t.s_duplicates <- t.s_duplicates + 1;
    p.Profile.r_duplicates <- p.Profile.r_duplicates + 1
  end

let top_producers ?(limit = 3) t =
  Hashtbl.fold (fun p r acc -> (p, !r) :: acc) t.pred_derived []
  |> List.sort (fun (pa, a) (pb, b) ->
         match compare b a with 0 -> String.compare pa pb | c -> c)
  |> List.filteri (fun i _ -> i < limit)

let limit_message t message =
  Printf.sprintf "%s at stratum %d, iteration %d%s" message t.s_stratum
    t.s_iteration
    (match top_producers t with
    | [] -> ""
    | top ->
      "; top producers: "
      ^ String.concat ", "
          (List.map (fun (p, n) -> Printf.sprintf "%s (%d new facts)" p n) top))

let check_fact_limit t =
  if Database.total t.db > t.config.max_facts then
    raise
      (Limit
         (limit_message t
            (Printf.sprintf "fact limit exceeded (%d facts)" t.config.max_facts)))

(* Cooperative cancellation: polled at stratum entry, at every fixpoint
   iteration boundary and, through [run_plan]'s [poll], every 4096
   scanned facts of every rule evaluation — inline or on a worker. The
   partial-progress snapshot reads only coordinator counters, which are
   frozen while workers run, so concurrent workers raise identical
   interrupts and [facts_derived] always equals [stats.facts_derived]
   observed right after the interrupt. *)
let check_budget t budget () =
  match budget with
  | None -> ()
  | Some b -> (
    match Budget.check b ~facts:t.s_derived with
    | None -> ()
    | Some reason ->
      raise
        (Interrupted
           {
             reason;
             stratum = t.s_stratum;
             iteration = t.s_iteration;
             facts_derived = t.s_derived;
           }))

(* Emit the heads of a plain (non-aggregate) rule under a complete body
   binding. *)
let emit_plain t cr ctx =
  let rule = cr.rule in
  (* Existential variables: one null per (rule, frontier binding). *)
  let introduced =
    match cr.existentials with
    | [] -> []
    | existentials ->
      let memo = rule_table t.skolem rule.Rule.id in
      let key = env_values ctx.env cr.frontier in
      let assignment =
        match Value.Array_tbl.find_opt memo key with
        | Some assignment -> assignment
        | None ->
          let assignment =
            List.map (fun v -> (v, Ids.fresh_null t.ids)) existentials
          in
          Value.Array_tbl.add memo key assignment;
          (* The frontier binding is complete here (env_values above
             would have raised otherwise); remembering it per invented
             null gives every null a label-independent Skolem identity. *)
          let frontier_binding =
            List.mapi (fun i fv -> (fv, key.(i))) cr.frontier
          in
          List.iter
            (fun (v, value) ->
              match value with
              | Value.Null n ->
                Hashtbl.replace t.null_origins n
                  {
                    origin_rule = rule.Rule.id;
                    origin_var = v;
                    origin_frontier = frontier_binding;
                  }
              | _ -> ())
            assignment;
          cr.c_prof.Profile.r_nulls <-
            cr.c_prof.Profile.r_nulls + List.length assignment;
          assignment
      in
      assignment
  in
  List.iter (fun (v, value) -> Hashtbl.replace ctx.env v value) introduced;
  let prov =
    if t.config.track_provenance then
      Database.Derived
        {
          rule_id = rule.Rule.id;
          rule_label = rule.Rule.label;
          parents = List.rev ctx.parents;
        }
    else Database.Edb
  in
  List.iter
    (fun atom ->
      let args = Array.map (Expr.eval ctx.env) atom.Atom.args in
      record_derivation t cr atom.Atom.pred
        (Database.add t.db ~prov atom.Atom.pred args))
    rule.Rule.head;
  List.iter (fun (v, _) -> Hashtbl.remove ctx.env v) introduced;
  check_fact_limit t

(* Evaluate the post-aggregation phase (assignments and guards over the
   bound aggregate result) and, if every guard holds, emit the heads.
   [bindings] seeds the environment with the group's variables. *)
let emit_agg_head t cr bindings =
  let rule = cr.rule in
  let env = Hashtbl.create 16 in
  List.iter (fun (v, value) -> Hashtbl.replace env v value) bindings;
  let passes =
    Array.for_all
      (function
        | S_assign (x, e) ->
          Hashtbl.replace env x (Expr.eval env e);
          true
        | S_guard e -> Expr.eval_bool env e
        | S_atom _ | S_neg _ -> true)
      cr.post
  in
  if passes then begin
    let prov =
      if t.config.track_provenance then
        Database.Derived
          { rule_id = rule.Rule.id; rule_label = rule.Rule.label; parents = [] }
      else Database.Edb
    in
    List.iter
      (fun atom ->
        let args = Array.map (Expr.eval env) atom.Atom.args in
        record_derivation t cr atom.Atom.pred
          (Database.add t.db ~prov atom.Atom.pred args))
      rule.Rule.head;
    check_fact_limit t
  end

(* One full evaluation of an aggregate rule. For Bind rules, [finalize]
   emits every group at the end; for Test rules, groups that pass emit as
   soon as they pass. *)
let eval_agg_rule t cr ~poll ~delta_range ~plan_idx =
  let agg = Option.get cr.agg in
  let groups = rule_table t.agg_groups cr.rule.Rule.id in
  let group_vars = cr.group_vars in
  let ctx = { env = Hashtbl.create 16; parents = [] } in
  let on_binding () =
    let gkey = env_values ctx.env group_vars in
    let group =
      match Value.Array_tbl.find_opt groups gkey with
      | Some group -> group
      | None ->
        let snapshot = List.mapi (fun i v -> (v, gkey.(i))) group_vars in
        let group = { state = Aggregate.create agg.Rule.agg_op; snapshot } in
        Value.Array_tbl.add groups gkey group;
        t.s_agg_groups <- t.s_agg_groups + 1;
        cr.c_prof.Profile.r_groups <- cr.c_prof.Profile.r_groups + 1;
        group
    in
    let contributor =
      Array.of_list (List.map (term_value ctx.env) agg.Rule.agg_contributors)
    in
    let contribution = Expr.eval ctx.env agg.Rule.agg_arg in
    ignore (Aggregate.contribute group.state ~contributor contribution);
    (match agg.Rule.agg_result with
    | Rule.Test (op, rhs) ->
      let current = Aggregate.current group.state in
      let passes =
        Expr.eval_bool ctx.env
          (Expr.Binop (op, Expr.Const current, rhs))
      in
      if passes then emit_agg_head t cr group.snapshot
    | Rule.Bind _ -> ())
  in
  run_plan t cr.plans.(plan_idx) ~delta_range ~prof:cr.c_prof ~poll ctx
    ~on_binding;
  match agg.Rule.agg_result with
  | Rule.Bind x ->
    Value.Array_tbl.iter
      (fun _ group ->
        if Aggregate.contributors group.state > 0 then
          emit_agg_head t cr
            ((x, Aggregate.current group.state) :: group.snapshot))
      groups
  | Rule.Test _ -> ()

let eval_plain_rule t cr ~poll ~delta_range ~plan_idx =
  let ctx = { env = Hashtbl.create 16; parents = [] } in
  run_plan t cr.plans.(plan_idx) ~delta_range ~prof:cr.c_prof ~poll ctx
    ~on_binding:(fun () -> emit_plain t cr ctx)

(* Every rule evaluation goes through here: the profiler's per-rule self
   time and evaluation count come from this wrapper (plus the optional
   telemetry span when the global registry is armed). Rule evaluations
   never nest, so the measured wall time is pure self time. *)
let eval_timed cr f =
  let p = cr.c_prof in
  p.Profile.r_evals <- p.Profile.r_evals + 1;
  let t0 = Profile.now () in
  Fun.protect
    ~finally:(fun () -> p.Profile.r_time <- p.Profile.r_time +. (Profile.now () -. t0))
    (fun () -> Telemetry.span cr.c_span f)

(* ---- plain-rule evaluation -------------------------------------------- *)

(* One walk evaluates the plain rules of every fixpoint iteration, with
   or without a pool: the (rule, delta plan) jobs are visited in a fixed
   order and grouped greedily into batches. A batch runs inline — job
   by job through [eval_plain_rule], which is the sequential chase —
   unless the engine has a pool and the batch's estimated work reaches
   [min_parallel_scans]. Then it runs in two phases that stay
   byte-identical to the inline run (the full design and correctness
   argument live in docs/PARALLELISM.md):

   - phase 1 (parallel, read-only): each job's delta range is cut into
     contiguous chunks sized by the rule's cost model; each worker runs
     the join plan over its chunk against the frozen database into a
     reused [wscratch], buffering per binding the values of the rule's
     capture set and the matched parents. Nothing is written to the
     database, the skolem memo, or the shared profiler.
   - phase 2 (single-threaded merge): the coordinator replays the
     buffered bindings in job order, then chunk order, then binding
     order — exactly the order inline evaluation would have emitted
     them — through [emit_plain], the inline emission path itself.
     Insertion order, labelled null names, dedup outcomes and
     provenance are therefore identical to an inline run.

   A (rule, plan) job joins a batch only when it is {e snapshot-safe}:
   its head predicates do not intersect the predicates the plan reads
   outside its delta atom ([c_plan_reads]), because inline evaluation
   lets a rule's inner scans see its own emissions live; and it reads
   no predicate an earlier job of the batch writes. Any other job, and
   every zero-atom rule, flushes the batch and runs inline; aggregate
   rules never enter this walk. *)

type job = { j_cr : compiled_rule; j_plan : int; j_lo : int; j_hi : int }

(* Cost-model feedback: observed scanned-facts-per-delta-fact of a
   completed evaluation, folded into the rule's EWMA with equal weight
   so the estimate tracks phase changes (an index appearing, a
   predicate saturating) within a couple of iterations. *)
let spd_update cr ~plan ~delta ~scanned =
  if delta > 0 then begin
    let observed = float_of_int scanned /. float_of_int delta in
    cr.c_spd.(plan) <- (0.5 *. cr.c_spd.(plan)) +. (0.5 *. observed)
  end

let job_est_scans j =
  float_of_int (j.j_hi - j.j_lo) *. j.j_cr.c_spd.(j.j_plan)

(* Cut [lo, hi) into contiguous chunks sized by estimated join work:
   enough chunks that each carries ~[target_chunk_scans] scanned facts
   under the rule's cost model, floored at [min_chunk_facts] facts and
   capped at [domains * 4] chunks for load balancing. Chunk boundaries
   affect only scheduling — the merge replays chunks in range order, so
   any cut of the same delta yields byte-identical results. *)
let adaptive_chunks ~domains ~spd lo hi =
  let size = hi - lo in
  let by_cost =
    int_of_float
      (Float.ceil (float_of_int size *. spd /. float_of_int target_chunk_scans))
  in
  let by_floor = (size + min_chunk_facts - 1) / min_chunk_facts in
  let n = max 1 (min (min by_cost by_floor) (domains * 4)) in
  let base = size / n and rem = size mod n in
  List.init n (fun i ->
      let start = lo + (i * base) + min i rem in
      (start, start + base + if i < rem then 1 else 0))

let parallel_safe cr k =
  not (List.exists (fun p -> List.mem p cr.c_heads) cr.c_plan_reads.(k))

let run_parallel_batch t pool ~poll jobs =
  (* One evaluation per job, accounted up front so [r_evals] matches the
     inline count deterministically. *)
  List.iter
    (fun j ->
      let p = j.j_cr.c_prof in
      p.Profile.r_evals <- p.Profile.r_evals + 1)
    jobs;
  let domains = Task_pool.domains pool in
  let chunks =
    List.concat_map
      (fun j ->
        List.map
          (fun (lo, hi) -> (j, lo, hi))
          (adaptive_chunks ~domains ~spd:j.j_cr.c_spd.(j.j_plan) j.j_lo j.j_hi))
      jobs
  in
  let tasks =
    Array.of_list
      (List.map
         (fun (j, lo, hi) () ->
           Faultpoint.hit "engine.chunk";
           poll ();
           let t0 = Profile.now () in
           let cr = j.j_cr in
           let ws = Joinstate.acquire t.scratch in
           try
             let ctx = ws.ws_ctx in
             run_plan t cr.plans.(j.j_plan) ~delta_range:(Some (lo, hi))
               ~prof:ws.ws_prof ~poll ctx ~on_binding:(fun () ->
                 ws_push ws
                   {
                     e_vals = Array.map (Hashtbl.find ctx.env) cr.c_capture;
                     e_parents = ctx.parents;
                   });
             let elapsed = Profile.now () -. t0 in
             (* Recorded on the worker domain into its registry shard. *)
             Telemetry.observe "engine.chunk.size" (float_of_int (hi - lo));
             Telemetry.observe "engine.chunk.scanned"
               (float_of_int ws.ws_prof.Profile.r_scanned);
             Telemetry.observe "engine.chunk.join" elapsed;
             (ws, elapsed)
           with e ->
             Joinstate.release t.scratch ws;
             raise e)
         chunks)
  in
  let results = Task_pool.run_all pool tasks in
  (* Fail before any merge: a worker error (typed fault, budget
     interrupt) leaves the database untouched by this batch, and the
     first task in submission order wins deterministically. Successful
     tasks' scratch goes back to the bank first. *)
  if Array.exists (function Error _ -> true | Ok _ -> false) results then begin
    Array.iter
      (function Ok (ws, _) -> Joinstate.release t.scratch ws | Error _ -> ())
      results;
    Array.iter (function Error e -> raise e | Ok _ -> ()) results
  end;
  (* Phase 2: the serial tail that caps parallel speedup, so it gets
     its own span and histogram. *)
  Telemetry.span "engine.merge" (fun () ->
      let t0 = Profile.now () in
      let ctx = { env = Hashtbl.create 16; parents = [] } in
      List.iteri
        (fun i (j, lo, hi) ->
          match results.(i) with
          | Error _ -> assert false
          | Ok (ws, elapsed) ->
            let cr = j.j_cr in
            let p = cr.c_prof in
            let wp = ws.ws_prof in
            p.Profile.r_time <- p.Profile.r_time +. elapsed;
            p.Profile.r_scanned <- p.Profile.r_scanned + wp.Profile.r_scanned;
            p.Profile.r_matched <- p.Profile.r_matched + wp.Profile.r_matched;
            p.Profile.r_bindings <-
              p.Profile.r_bindings + wp.Profile.r_bindings;
            spd_update cr ~plan:j.j_plan ~delta:(hi - lo)
              ~scanned:wp.Profile.r_scanned;
            for k = 0 to ws.ws_n - 1 do
              let e = ws.ws_emits.(k) in
              Hashtbl.reset ctx.env;
              Array.iteri
                (fun vi v -> Hashtbl.replace ctx.env cr.c_capture.(vi) v)
                e.e_vals;
              ctx.parents <- e.e_parents;
              emit_plain t cr ctx
            done;
            Joinstate.release t.scratch ws)
        chunks;
      Telemetry.observe "engine.merge.replay" (Profile.now () -. t0))

(* The plain-rule pass of one fixpoint iteration: walk the (rule, delta
   plan) jobs in rule order, batching consecutive snapshot-safe jobs
   and flushing a batch whenever the next job must observe its
   predecessors' emissions. Zero-atom rules have no delta and run on
   the [first_pass] only. *)
let run_plain_rules t ~poll ~first_pass ~watermark ~snap plain_rules =
  let eval_inline cr ~delta_range ~plan_idx =
    let scanned_before = cr.c_prof.Profile.r_scanned in
    eval_timed cr (fun () ->
        eval_plain_rule t cr ~poll ~delta_range ~plan_idx);
    (* Inline evaluations feed the cost model too, so a rule that
       never parallelizes still has a current estimate when its delta
       finally grows. *)
    match delta_range with
    | Some (lo, hi) ->
      spd_update cr ~plan:plan_idx ~delta:(hi - lo)
        ~scanned:(cr.c_prof.Profile.r_scanned - scanned_before)
    | None -> ()
  in
  let batch = ref [] (* reversed *) in
  let batch_heads = ref [] in
  let flush () =
    let jobs = List.rev !batch in
    batch := [];
    batch_heads := [];
    (* Estimated total join work decides whether the batch is worth
       the fork-join + capture/replay machinery at all: tiny batches
       (the long tail of most fixpoints) run inline and dodge the
       constant factors entirely. *)
    let est = List.fold_left (fun acc j -> acc +. job_est_scans j) 0.0 jobs in
    match t.pool with
    | Some pool when est >= float_of_int min_parallel_scans ->
      run_parallel_batch t pool ~poll jobs
    | Some _ | None ->
      List.iter
        (fun j ->
          eval_inline j.j_cr
            ~delta_range:(Some (j.j_lo, j.j_hi))
            ~plan_idx:j.j_plan)
        jobs
  in
  List.iter
    (fun cr ->
      let n = Array.length cr.pos_atoms in
      if n = 0 then begin
        if first_pass then begin
          flush ();
          eval_inline cr ~delta_range:None ~plan_idx:n
        end
      end
      else
        for k = 0 to n - 1 do
          let pred = fst cr.pos_atoms.(k) in
          let lo = watermark pred and hi = snap pred in
          if lo < hi then begin
            Telemetry.observe "engine.iteration.delta" (float_of_int (hi - lo));
            if parallel_safe cr k then begin
              if
                List.exists
                  (fun p -> List.mem p !batch_heads)
                  cr.c_plan_reads.(k)
              then flush ();
              batch := { j_cr = cr; j_plan = k; j_lo = lo; j_hi = hi } :: !batch;
              batch_heads := cr.c_heads @ !batch_heads
            end
            else begin
              flush ();
              eval_inline cr ~delta_range:(Some (lo, hi)) ~plan_idx:k
            end
          end
        done)
    plain_rules;
  flush ()

let is_bind_rule cr =
  match cr.agg with
  | Some { agg_result = Rule.Bind _; _ } -> true
  | Some { agg_result = Rule.Test _; _ } | None -> false

let is_test_rule cr =
  match cr.agg with
  | Some { agg_result = Rule.Test _; _ } -> true
  | Some { agg_result = Rule.Bind _; _ } | None -> false

let run_stratum ?budget ~seed t index rules =
  t.s_stratum <- index;
  t.s_iteration <- 0;
  t.s_strata_run <- t.s_strata_run + 1;
  Faultpoint.hit "engine.stratum";
  let poll = check_budget t budget in
  poll ();
  (* The stratum resumes the fixpoint its [seed] records. That is only
     sound while every non-monotone input is exactly as the previous run
     left it — a grown guard predicate means facts derived through
     [not p(..)] or a saturated aggregate binding may no longer hold, so
     the whole continuation is abandoned (the caller falls back to a
     from-scratch chase; this engine's database may hold partial results
     from already-continued strata and must be discarded). *)
  List.iter
    (fun (p, size) ->
      let cur = Database.pred_size t.db p in
      if cur <> size then
        raise
          (Invalidated
             (Printf.sprintf
                "stratum %d: predicate %s has %d facts, snapshot expects %d \
                 (negated or aggregated input changed)"
                index p cur size)))
    seed.Snapshot.sn_guards;
  let facts_at_entry = Database.total t.db in
  let duplicates_at_entry = t.s_duplicates in
  let compiled = List.map (fun r -> Hashtbl.find t.compiled r.Rule.id) rules in
  List.iter (fun cr -> cr.c_prof.Profile.r_stratum <- index) compiled;
  (* A saturated stratum skips aggregate-binding rules (their inputs are
     unchanged by the guard check, so their output is already in the
     database) and zero-atom rules (no positive atoms — their heads were
     emitted by the previous run and would only come back as
     duplicates). *)
  let compiled =
    if seed.Snapshot.sn_saturated then
      List.filter
        (fun cr -> (not (is_bind_rule cr)) && Array.length cr.pos_atoms > 0)
        compiled
    else compiled
  in
  let bind_rules = List.filter is_bind_rule compiled in
  let test_rules = List.filter is_test_rule compiled in
  let plain_rules =
    List.filter (fun cr -> not (is_bind_rule cr || is_test_rule cr)) compiled
  in
  let iteration = ref 0 in
  let stratum_start = Profile.now () in
  Fun.protect ~finally:(fun () ->
      Profile.stratum_add t.prof index
        ~time:(Profile.now () -. stratum_start)
        ~iterations:!iteration)
  @@ fun () ->
  (* Aggregate-binding rules: inputs are saturated, evaluate once. *)
  List.iter
    (fun cr ->
      let n = Array.length cr.pos_atoms in
      eval_timed cr (fun () ->
          eval_agg_rule t cr ~poll ~delta_range:None ~plan_idx:n))
    bind_rules;
  (* Fixpoint for the rest. The seeded [seen] table makes the first
     iteration's deltas exactly the facts that appeared since the
     stratum's previous fixpoint — every fact, for a cold seed. *)
  let seen = Hashtbl.create 16 in
  List.iter (fun (p, w) -> Hashtbl.replace seen p w) seed.Snapshot.sn_seen;
  let watermark pred =
    match Hashtbl.find_opt seen pred with Some w -> w | None -> 0
  in
  let continue = ref (plain_rules <> [] || test_rules <> []) in
  while !continue do
    incr iteration;
    t.s_iteration <- !iteration;
    t.s_iterations <- t.s_iterations + 1;
    Faultpoint.hit "engine.iterate";
    poll ();
    if !iteration > t.config.max_iterations then
      raise
        (Limit
           (limit_message t
              (Printf.sprintf "iteration limit exceeded (%d)"
                 t.config.max_iterations)));
    let derived_before = t.s_derived in
    let duplicates_before = t.s_duplicates in
    let before = Database.total t.db in
    (* Snapshot the frontier: facts in [watermark, snapshot) are the delta. *)
    let snapshot = Hashtbl.create 16 in
    let preds_of cr = cr.c_preds in
    Telemetry.span "engine.snapshot" (fun () ->
        List.iter
          (fun cr ->
            List.iter
              (fun p ->
                if not (Hashtbl.mem snapshot p) then
                  Hashtbl.add snapshot p (Database.pred_size t.db p))
              (preds_of cr))
          (plain_rules @ test_rules));
    let snap pred =
      match Hashtbl.find_opt snapshot pred with Some s -> s | None -> 0
    in
    run_plain_rules t ~poll ~first_pass:(!iteration = 1) ~watermark ~snap
      plain_rules;
    List.iter
      (fun cr ->
        (* The unconditional first evaluation only matters for a cold
           stratum; a saturated one re-tests only on a real delta — its
           persistent contributor tables already hold every previous
           contribution. *)
        let dirty =
          ((not seed.Snapshot.sn_saturated) && !iteration = 1)
          || List.exists (fun p -> watermark p < snap p) (preds_of cr)
        in
        if dirty then
          let n = Array.length cr.pos_atoms in
          eval_timed cr (fun () ->
              eval_agg_rule t cr ~poll ~delta_range:None ~plan_idx:n))
      test_rules;
    Hashtbl.iter (fun pred s -> Hashtbl.replace seen pred s) snapshot;
    Telemetry.observe "engine.iteration.derived"
      (float_of_int (t.s_derived - derived_before));
    Telemetry.observe "engine.iteration.duplicates"
      (float_of_int (t.s_duplicates - duplicates_before));
    let after = Database.total t.db in
    (* Stop when this pass derived nothing new and every delta was consumed:
       any fact born during the pass is above the stored watermark and will
       be someone's delta next pass. *)
    let frontier_pending =
      List.exists
        (fun cr ->
          List.exists
            (fun p -> watermark p < Database.pred_size t.db p)
            (preds_of cr))
        (plain_rules @ test_rules)
    in
    continue := after > before || frontier_pending
  done;
  Log.debug (fun m ->
      m "stratum %d: %d rules, fixpoint in %d iterations, %d facts (+%d new, %d duplicates suppressed)"
        index (List.length rules) !iteration (Database.total t.db)
        (Database.total t.db - facts_at_entry)
        (t.s_duplicates - duplicates_at_entry))

let rule_derivations t =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ cr ->
      let label = cr.rule.Rule.label in
      let cur = try Hashtbl.find acc label with Not_found -> (0, 0) in
      Hashtbl.replace acc label
        ( fst cur + cr.c_prof.Profile.r_derived,
          snd cur + cr.c_prof.Profile.r_duplicates ))
    t.compiled;
  Hashtbl.fold (fun label (d, _) acc -> (label, d) :: acc) acc []
  |> List.sort (fun (la, a) (lb, b) ->
         match compare b a with 0 -> String.compare la lb | c -> c)

let pred_derivations t =
  Hashtbl.fold (fun p r acc -> (p, !r) :: acc) t.pred_derived []
  |> List.sort (fun (pa, a) (pb, b) ->
         match compare b a with 0 -> String.compare pa pb | c -> c)

let stats t =
  {
    strata_run = t.s_strata_run;
    iterations = t.s_iterations;
    facts_derived = t.s_derived;
    duplicates_suppressed = t.s_duplicates;
    agg_groups_created = t.s_agg_groups;
    nulls_created = Ids.count t.ids;
  }

(* Mirror the always-on chase statistics into the global telemetry
   registry. Counters are {e set} to their absolute values, so re-running
   an engine (or several engines in one process) never double-counts its
   own totals — the last run's numbers win per counter name. *)
let publish_telemetry t =
  if Telemetry.enabled () then begin
    let set name v = Telemetry.Counter.set (Telemetry.Counter.v name) v in
    set "engine.facts.derived" t.s_derived;
    set "engine.facts.duplicate" t.s_duplicates;
    set "engine.facts.total" (Database.total t.db);
    set "engine.nulls.created" (Ids.count t.ids);
    set "engine.agg.groups" t.s_agg_groups;
    set "engine.iterations" t.s_iterations;
    set "engine.strata" (Array.length t.strat.Stratify.strata);
    if t.config.track_provenance then set "engine.provenance.nodes" t.s_derived;
    let by_label = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ cr ->
        let cur =
          try Hashtbl.find by_label cr.c_span with Not_found -> (0, 0)
        in
        Hashtbl.replace by_label cr.c_span
          ( fst cur + cr.c_prof.Profile.r_derived,
            snd cur + cr.c_prof.Profile.r_duplicates ))
      t.compiled;
    Hashtbl.iter
      (fun name (d, dup) ->
        set (name ^ ".derived") d;
        set (name ^ ".duplicates") dup)
      by_label;
    Hashtbl.iter
      (fun pred r -> set ("engine.pred." ^ pred ^ ".derived") !r)
      t.pred_derived
  end

(* The strata driver of [run] and [run_incremental]: every stratum
   bottom-up, each resumed from its seed. *)
let run_strata ?budget ~span t seeds =
  let t0 = Profile.now () in
  Fun.protect
    ~finally:(fun () ->
      Profile.add_run_time t.prof (Profile.now () -. t0);
      (* publish whatever was derived even when the run is interrupted:
         degraded reports are built from these partial counters *)
      publish_telemetry t)
    (fun () ->
      try
        Telemetry.span span (fun () ->
            Array.iteri
              (fun i rules ->
                Telemetry.span ("engine.stratum." ^ string_of_int i)
                  (fun () -> run_stratum ?budget ~seed:seeds.(i) t i rules))
              t.strat.Stratify.strata)
      with Interrupted i as e ->
        Log.debug (fun m ->
            m "chase interrupted (%s) at stratum %d, iteration %d, %d facts"
              (Budget.reason_to_string i.reason)
              i.stratum i.iteration i.facts_derived);
        raise e)

let run ?budget t =
  run_strata ?budget ~span:"engine.run" t
    (Array.map (fun _ -> Snapshot.cold) t.strat.Stratify.strata)

(* ---- incremental re-evaluation ---------------------------------------- *)

let snapshot t =
  let sizes preds = List.map (fun p -> (p, Database.pred_size t.db p)) preds in
  let strata =
    Array.map
      (fun rules ->
        let compiled =
          List.map (fun r -> Hashtbl.find t.compiled r.Rule.id) rules
        in
        (* Watermarks for every predicate the fixpoint loop scans
           semi-naively (positive atoms of plain and aggregate-test
           rules); guard sizes for every predicate whose growth breaks
           the stratum's fixpoint: negated atoms anywhere, and the
           positive inputs of aggregate-binding rules (those evaluate
           once, over saturated inputs). *)
        let seen_preds =
          List.concat_map
            (fun cr -> if is_bind_rule cr then [] else cr.c_preds)
            compiled
          |> List.sort_uniq compare
        in
        let guard_preds =
          List.concat_map
            (fun cr ->
              let negated =
                List.filter_map
                  (function p, `Neg -> Some p | _, `Pos -> None)
                  (Rule.body_predicates cr.rule)
              in
              if is_bind_rule cr then cr.c_preds @ negated else negated)
            compiled
          |> List.sort_uniq compare
        in
        {
          Snapshot.sn_seen = sizes seen_preds;
          sn_guards = sizes guard_preds;
          sn_saturated = true;
        })
      t.strat.Stratify.strata
  in
  { Snapshot.sn_strata = strata; sn_total = Database.total t.db }

let run_incremental ?budget ~snapshot:(snap : Snapshot.t) t =
  if
    Array.length snap.Snapshot.sn_strata
    <> Array.length t.strat.Stratify.strata
  then
    raise
      (Invalidated
         (Printf.sprintf "snapshot covers %d strata, the program has %d"
            (Array.length snap.Snapshot.sn_strata)
            (Array.length t.strat.Stratify.strata)));
  run_strata ?budget ~span:"engine.run_incremental" t snap.Snapshot.sn_strata;
  snapshot t

let null_origin t label = Hashtbl.find_opt t.null_origins label

let profile t = t.prof

let profile_report t = Profile.report t.prof

let facts t pred = Database.facts t.db pred

let database t = t.db

let explain ?max_depth t pred args = Provenance.explain ?max_depth t.db pred args

let nulls_created t = Ids.count t.ids
