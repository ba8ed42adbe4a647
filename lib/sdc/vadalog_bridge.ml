module Value = Vadasa_base.Value
module Relational = Vadasa_relational
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module V = Vadasa_vadalog

exception Unsupported of string

let category_constant = function
  | Microdata.Identifier -> "identifier"
  | Microdata.Quasi_identifier -> "quasi_identifier"
  | Microdata.Non_identifying -> "non_identifying"
  | Microdata.Weight -> "weight"

let microdata_facts md =
  let name = Microdata.name md in
  let rel = Microdata.relation md in
  let schema = Microdata.schema md in
  let cat_facts =
    List.filter_map
      (fun (attr, cat) ->
        match cat with
        | Microdata.Quasi_identifier | Microdata.Weight ->
          Some
            ( "cat",
              [| Value.Str name; Value.Str attr; Value.Str (category_constant cat) |]
            )
        | Microdata.Identifier | Microdata.Non_identifying -> None)
      (Microdata.categories md)
  in
  let val_facts = ref [] in
  let interesting =
    List.filter_map
      (fun (attr, cat) ->
        match cat with
        | Microdata.Quasi_identifier | Microdata.Weight ->
          Some (attr, Schema.index_of schema attr)
        | Microdata.Identifier | Microdata.Non_identifying -> None)
      (Microdata.categories md)
  in
  Relation.iteri
    (fun i t ->
      List.iter
        (fun (attr, pos) ->
          val_facts :=
            ( "val",
              [| Value.Str name; Value.Int i; Value.Str attr; Tuple.get t pos |] )
            :: !val_facts)
        interesting)
    rel;
  cat_facts @ List.rev !val_facts

(* The delta slice of the encoding: [val] facts for rows [lo, hi) only.
   The [cat] facts are schema-level and already loaded by the base
   upload, so an append ships just the new rows' values — in the same
   row-major order [microdata_facts] uses, which keeps an incremental
   engine's insertion order aligned with the from-scratch encoding. *)
let microdata_facts_range md ~lo ~hi =
  let name = Microdata.name md in
  let rel = Microdata.relation md in
  let schema = Microdata.schema md in
  let interesting =
    List.filter_map
      (fun (attr, cat) ->
        match cat with
        | Microdata.Quasi_identifier | Microdata.Weight ->
          Some (attr, Schema.index_of schema attr)
        | Microdata.Identifier | Microdata.Non_identifying -> None)
      (Microdata.categories md)
  in
  let facts = ref [] in
  for i = lo to hi - 1 do
    let t = Relation.get rel i in
    List.iter
      (fun (attr, pos) ->
        facts :=
          ( "val",
            [| Value.Str name; Value.Int i; Value.Str attr; Tuple.get t pos |] )
          :: !facts)
      interesting
  done;
  List.rev !facts

let base_program =
  {|
% Algorithm 2, Rule 1: collect quasi-identifier name-value pairs per tuple
% and extract the sampling weight.
@label("assemble_tuple").
qset(I, QS) :- val(M, I, A, V1), cat(M, A, quasi_identifier),
               QS = munion((A, V1), <A>).
@label("weight").
wval(I, W) :- val(M, I, A, W), cat(M, A, weight).
|}

let k_anonymity_program ~k =
  base_program
  ^ {|
% Algorithm 4 - k-anonymity: a combination shared by fewer than k tuples
% is dangerous.
@label("combination_frequency").
grp(QS, F) :- qset(I, QS), F = mcount(<I>).
@label("k_anonymity_risk").
riskoutput(I, R) :- qset(I, QS), grp(QS, F), R = ite(F < |}
  ^ string_of_int k
  ^ {|, 1.0, 0.0).
@output("riskoutput").
|}

let k_anonymity_maybe_program ~k =
  base_program
  ^ {|
% Algorithm 4 under the maybe-match semantics of Section 4.3: a labelled
% null matches any value, so a suppressed tuple joins every compatible
% combination. Frequencies are counted over the =⊥ relation pairwise.
@label("maybe_match").
mm(I, J) :- qset(I, V1), qset(J, V2), maybe_eq(V1, V2).
@label("combination_frequency").
grp(I, F) :- mm(I, J), F = mcount(<J>).
@label("k_anonymity_risk").
riskoutput(I, R) :- grp(I, F), R = ite(F < |}
  ^ string_of_int k
  ^ {|, 1.0, 0.0).
@output("riskoutput").
|}

let reidentification_program =
  base_program
  ^ {|
% Algorithm 3 - re-identification risk: 1 over the summed sampling weights
% of the combination (the estimated population frequency).
@label("combination_weight").
grpw(QS, S) :- qset(I, QS), wval(I, W), S = msum(W, <I>).
@label("reidentification_risk").
riskoutput(I, R) :- qset(I, QS), grpw(QS, S), R = ite(S <= 1.0, 1.0, 1 / S).
@output("riskoutput").
|}

let individual_program =
  base_program
  ^ {|
% Algorithm 5 - individual risk: sample frequency over estimated population
% frequency (negative-binomial posterior, naive lambda = sum(W)/f).
@label("combination_frequency").
grp(QS, F) :- qset(I, QS), F = mcount(<I>).
@label("combination_weight").
grpw(QS, S) :- qset(I, QS), wval(I, W), S = msum(W, <I>).
@label("individual_risk").
riskoutput(I, R) :- qset(I, QS), grp(QS, F), grpw(QS, S),
                    R = min(1.0, F / max(S, 1.0)).
@output("riskoutput").
|}

let suda_program ~max_size ~threshold_size =
  {|
% Algorithm 6 - SUDA: generate combinations of quasi-identifiers, find
% sample uniques, keep the minimal ones, flag small MSUs.
@label("element").
elem(I, P) :- val(M, I, A, V1), cat(M, A, quasi_identifier), P = (A, V1).
@label("singleton").
sub(I, S) :- elem(I, P), S = coll(P).
@label("extend").
sub(I, S2) :- sub(I, S), elem(I, P), not(member(S, P)),
              size(S) < |}
  ^ string_of_int max_size
  ^ {|, S2 = union(S, coll(P)).
@label("combination_count").
cnt(S, F) :- sub(I, S), F = mcount(<I>).
@label("sample_unique").
su(I, S) :- sub(I, S), cnt(S, F), F = 1.
@label("non_minimal").
smaller(I, S) :- su(I, S), su(I, S2), S2 != S, subset(S2, S).
@label("minimal_sample_unique").
msu(I, S) :- su(I, S), not smaller(I, S).
@label("suda_risk").
riskoutput(I, R) :- msu(I, S), size(S) < |}
  ^ string_of_int threshold_size
  ^ {|, R = 1.0.
@output("riskoutput").
|}

let enhanced_k_anonymity_program ~k =
  k_anonymity_program ~k
  ^ Business.program
  ^ {|
% Algorithm 9 - risk propagation along linked entities: every member of a
% cluster carries the risk that at least one member is re-identified,
% 1 - mprod(1 - rho). Links are the symmetric-transitive closure of the
% control relation.
@label("link_fwd").
link(X, Y) :- rel(X, Y), X != Y.
@label("link_bwd").
link(Y, X) :- rel(X, Y), X != Y.
@label("link_trans").
link(X, Z) :- link(X, Y), link(Y, Z), X != Z.
@label("self_link").
linked(X, X) :- ident(I, X).
@label("cluster_member").
linked(X, Y) :- link(X, Y).
@label("cluster_risk").
risk_prop(I1, RC) :- ident(I1, E1), linked(E1, E2), ident(I2, E2),
                     riskoutput(I2, R), S = mprod(1 - R, <I2>),
                     RC = 1 - S.
@label("enhanced_own").
enhancedrisk(I, R) :- riskoutput(I, R).
@label("enhanced_cluster").
enhancedrisk(I, RC) :- risk_prop(I, RC).
@output("enhancedrisk").
|}

(* Algorithm 9 end-to-end on the engine: k-anonymity risk, the control
   closure, and the cluster propagation all run declaratively. *)
let enhanced_risk_via_engine ?(k = 2) md ~id_attr ~ownerships =
  let source = enhanced_k_anonymity_program ~k in
  let rel = Microdata.relation md in
  let pos = Schema.index_of (Microdata.schema md) id_attr in
  let ident_facts =
    List.init (Relation.cardinal rel) (fun i ->
        ("ident", [| Value.Int i; (Relation.get rel i).(pos) |]))
  in
  let own_facts =
    List.map
      (fun o ->
        ( "own",
          [|
            Value.Str o.Business.owner;
            Value.Str o.Business.owned;
            Value.Float o.Business.share;
          |] ))
      ownerships
  in
  let program =
    V.Program.union (V.Parser.parse source)
      (V.Program.make ~facts:(microdata_facts md @ ident_facts @ own_facts) [])
  in
  let engine = V.Engine.create program in
  V.Engine.run engine;
  let n = Microdata.cardinal md in
  let risks = Array.make n 0.0 in
  List.iter
    (fun fact ->
      match fact with
      | [| Value.Int i; r |] when i >= 0 && i < n ->
        (match Value.as_float r with
        | Some x -> risks.(i) <- Float.max risks.(i) x
        | None -> ())
      | _ -> ())
    (V.Engine.facts engine "enhancedrisk");
  risks

let program_of_measure measure =
  match (measure : Risk.measure) with
  | Risk.K_anonymity { k } -> k_anonymity_program ~k
  | Risk.Re_identification -> reidentification_program
  | Risk.Individual Risk.Naive -> individual_program
  | Risk.Individual Risk.Benedetti_franconi ->
    raise
      (Unsupported
         "Benedetti-Franconi closed forms are outside the logic; use the \
          native path")
  | Risk.Individual (Risk.Monte_carlo _) ->
    raise (Unsupported "Monte Carlo sampling is outside the logic")
  | Risk.Suda { max_msu_size; threshold_size } ->
    suda_program ~max_size:max_msu_size ~threshold_size
  | Risk.Custom { name; _ } ->
    raise
      (Unsupported
         ("custom measure " ^ name
        ^ " is an OCaml function; express it as Vadalog rules to run it on \
           the engine"))

let engine_for ?budget ?(domains = 1) ?pool measure md ~first_null_label =
  let source = program_of_measure measure in
  let parsed = V.Parser.parse source in
  let program =
    V.Program.union parsed (V.Program.make ~facts:(microdata_facts md) [])
  in
  let engine = V.Engine.create ~first_null_label ~domains ?pool program in
  Fun.protect
    ~finally:(fun () -> V.Engine.shutdown engine)
    (fun () -> V.Engine.run ?budget engine);
  engine

let decode_risks engine n =
  let risks = Array.make n 0.0 in
  List.iter
    (fun fact ->
      match fact with
      | [| Value.Int i; r |] when i >= 0 && i < n ->
        (match Value.as_float r with
        | Some x -> risks.(i) <- Float.max risks.(i) x
        | None -> ())
      | _ -> ())
    (V.Engine.facts engine "riskoutput");
  risks

let risk_via_engine ?budget ?domains ?pool measure md =
  let engine = engine_for ?budget ?domains ?pool measure md ~first_null_label:1 in
  decode_risks engine (Microdata.cardinal md)

let explain_risk measure md ~tuple =
  let engine = engine_for measure md ~first_null_label:1 in
  let risks = decode_risks engine (Microdata.cardinal md) in
  if tuple < 0 || tuple >= Array.length risks then None
  else
    V.Engine.facts engine "riskoutput"
    |> List.find_opt (fun fact ->
           match fact with
           | [| Value.Int i; _ |] -> i = tuple
           | _ -> false)
    |> Option.map (fun fact ->
           match V.Engine.explain engine "riskoutput" fact with
           | Some tree -> V.Provenance.to_string tree
           | None -> "(no provenance recorded)")

type reasoned_outcome = {
  anonymized : Microdata.t;
  rounds : int;
  nulls_injected : int;
  suppressed : (int * string) list;
}

(* Run Algorithm 7 on the engine for the selected (tuple, attribute)
   directives and fold the suppressed tuples back into the relation. *)
let suppress_via_engine md directives ~first_null_label =
  let parsed = V.Parser.parse (base_program ^ Suppression.program) in
  let facts =
    microdata_facts md
    @ List.map
        (fun (i, attr) ->
          ("anonymize", [| Value.Int i; Value.Str attr |]))
        directives
  in
  (* [tuple] in the suppression program is our [qset]. *)
  let rename_rule =
    V.Parser.parse "tuple(I, VS) :- qset(I, VS)."
  in
  let program =
    V.Program.union
      (V.Program.union parsed rename_rule)
      (V.Program.make ~facts [])
  in
  let engine = V.Engine.create ~first_null_label program in
  V.Engine.run engine;
  let rel = Microdata.relation md in
  let schema = Microdata.schema md in
  List.iter
    (fun fact ->
      match fact with
      | [| Value.Int i; Value.Coll pairs |] ->
        List.iter
          (function
            | Value.Pair (Value.Str attr, v) ->
              (match Schema.index_of_opt schema attr with
              | Some pos when Value.is_null v ->
                Relation.set rel i (Tuple.set (Relation.get rel i) pos v)
              | Some _ | None -> ())
            | _ -> ())
          pairs
      | _ -> ())
    (V.Engine.facts engine "tuple_s");
  V.Engine.nulls_created engine

let reasoned_cycle ?(k = 2) ?(threshold = 0.5) ?(max_rounds = 20) input =
  let md = Microdata.copy input in
  let n = Microdata.cardinal md in
  let suppressed = ref [] in
  let nulls = ref 0 in
  let rounds = ref 0 in
  let next_label = ref 1 in
  let continue = ref true in
  while !continue && !rounds < max_rounds do
    incr rounds;
    (* Null-tolerant k-anonymity: suppressed tuples must be credited with
       their maybe-matches, or the cycle would over-suppress. *)
    let source = k_anonymity_maybe_program ~k in
    let program =
      V.Program.union (V.Parser.parse source)
        (V.Program.make ~facts:(microdata_facts md) [])
    in
    let engine = V.Engine.create ~first_null_label:!next_label program in
    V.Engine.run engine;
    let risks = decode_risks engine n in
    (* The "most risky first" routing strategy (Section 4.4): suppress the
       quasi-identifier whose removal gains the most anonymity. *)
    let cache = Heuristics.build_cache md in
    let directives = ref [] in
    Array.iteri
      (fun i r ->
        if r > threshold then
          let candidates = Suppression.suppressible md ~tuple:i in
          match
            Heuristics.choose_qi Heuristics.Most_risky_qi cache md ~tuple:i
              ~candidates
          with
          | Some attr -> directives := (i, attr) :: !directives
          | None -> ())
      risks;
    match !directives with
    | [] -> continue := false
    | directives ->
      let used =
        suppress_via_engine md (List.rev directives) ~first_null_label:!next_label
      in
      next_label := !next_label + used + 1;
      nulls := !nulls + List.length directives;
      suppressed := List.rev_append directives !suppressed
  done;
  {
    anonymized = md;
    rounds = !rounds;
    nulls_injected = !nulls;
    suppressed = List.rev !suppressed;
  }
