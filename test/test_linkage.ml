(* Tests for the record-linkage attack substrate: oracle construction,
   blocking (with null wildcards), matching, and the before/after-
   anonymization attack experiment. *)

module Value = Vadasa_base.Value
module R = Vadasa_relational
module S = Vadasa_sdc
module D = Vadasa_datagen
module L = Vadasa_linkage

let small_md ?(tuples = 300) ?(dist = D.Generator.U) ?(seed = 21) () =
  D.Generator.generate
    { D.Generator.name = "atk"; tuples; qi_count = 4; distribution = dist; seed }

let oracle_of md =
  let rng = Vadasa_stats.Rng.create ~seed:3 in
  L.Oracle.from_microdata rng md ()

let test_oracle_construction () =
  let md = small_md () in
  let oracle = oracle_of md in
  Alcotest.(check bool) "oracle at least as big as microdata" true
    (L.Oracle.cardinal oracle >= S.Microdata.cardinal md);
  (* The true respondent's oracle row carries the tuple's QI values. *)
  for i = 0 to 20 do
    let identity = L.Oracle.true_identity oracle i in
    Alcotest.(check bool) "identity shaped" true
      (String.length identity > 0 && String.sub identity 0 7 = "person_")
  done

let test_blocking_exact () =
  let md = small_md () in
  let oracle = oracle_of md in
  let blocking = L.Blocking.build oracle in
  (* Every microdata tuple's cohort contains at least its own respondent. *)
  for i = 0 to S.Microdata.cardinal md - 1 do
    let cohort = L.Blocking.candidates blocking (S.Microdata.qi_projection md i) in
    Alcotest.(check bool) "non-empty cohort" true (cohort <> []);
    let identities = List.map (L.Oracle.identity_of_row oracle) cohort in
    Alcotest.(check bool) "true respondent in cohort" true
      (List.mem (L.Oracle.true_identity oracle i) identities)
  done

let test_blocking_null_wildcard () =
  let md = S.Microdata.copy (small_md ()) in
  let oracle = oracle_of md in
  let blocking = L.Blocking.build oracle in
  let before = L.Blocking.block_size blocking (S.Microdata.qi_projection md 0) in
  let ids = Vadasa_base.Ids.create () in
  ignore (S.Suppression.suppress ids md ~tuple:0 ~attr:"qi_1");
  let after = L.Blocking.block_size blocking (S.Microdata.qi_projection md 0) in
  Alcotest.(check bool) "wildcard grows the cohort" true (after >= before);
  (* Suppressing everything matches the whole oracle. *)
  List.iter
    (fun attr -> ignore (S.Suppression.suppress ids md ~tuple:0 ~attr))
    (S.Microdata.quasi_identifiers md);
  Alcotest.(check int) "all-null matches everything" (L.Oracle.cardinal oracle)
    (L.Blocking.block_size blocking (S.Microdata.qi_projection md 0))

let test_blocking_type_confusion () =
  (* [Int 1] and [Str "1"] render alike but are different values: a target
     holding one must not block the other, with or without a wildcard. *)
  let rel =
    R.Relation.of_tuples
      (R.Schema.of_names ~name:"t" [ "a"; "b"; "w" ])
      [
        [| Value.Int 1; Value.Str "x"; Value.Float 1.0 |];
        [| Value.Str "1"; Value.Str "x"; Value.Float 1.0 |];
      ]
  in
  let md =
    S.Microdata.make rel
      [
        ("a", S.Microdata.Quasi_identifier);
        ("b", S.Microdata.Quasi_identifier);
        ("w", S.Microdata.Weight);
      ]
  in
  let oracle = oracle_of md in
  Alcotest.(check int) "no decoys" 2 (L.Oracle.cardinal oracle);
  let blocking = L.Blocking.build oracle in
  let identities target =
    List.map (L.Oracle.identity_of_row oracle) (L.Blocking.candidates blocking target)
  in
  List.iteri
    (fun i a ->
      let only = [ L.Oracle.true_identity oracle i ] in
      Alcotest.(check (list string)) "exact" only
        (identities [| a; Value.Str "x" |]);
      Alcotest.(check (list string)) "with a wildcard" only
        (identities [| a; Value.Null 1 |]))
    [ Value.Int 1; Value.Str "1" ]

let test_matching_score () =
  let a = [| Value.Str "x"; Value.Str "y"; Value.Null 1 |] in
  let b = [| Value.Str "x"; Value.Str "z"; Value.Str "w" |] in
  Alcotest.(check int) "one agreement" 1 (L.Matching.score a b);
  Alcotest.(check int) "null never confirms" 2
    (L.Matching.score [| Value.Str "x"; Value.Str "z"; Value.Null 1 |] b)

let test_attack_baseline_hits () =
  (* On raw unbalanced microdata, many cohorts are small; the attacker
     scores real hits. *)
  let md = small_md () in
  let oracle = oracle_of md in
  let result = L.Attack.run oracle md in
  Alcotest.(check int) "attempted all" 300 result.L.Attack.attempted;
  Alcotest.(check bool) "some exact hits" true (result.L.Attack.exact_hits > 0);
  Alcotest.(check bool) "expected hits positive" true
    (result.L.Attack.expected_hits > 0.0)

let test_attack_defeated_by_anonymization () =
  (* The paper's validation story: after the anonymization cycle, blocking
     cohorts grow and the attack's expected score drops. *)
  let md = small_md () in
  let oracle = oracle_of md in
  let before = L.Attack.run oracle md in
  let outcome = S.Cycle.run md in
  let after = L.Attack.run oracle outcome.S.Cycle.anonymized in
  Alcotest.(check bool)
    (Printf.sprintf "expected hits drop (%.1f -> %.1f)"
       before.L.Attack.expected_hits after.L.Attack.expected_hits)
    true
    (after.L.Attack.expected_hits < before.L.Attack.expected_hits);
  Alcotest.(check bool) "cohorts grow" true
    (after.L.Attack.mean_block > before.L.Attack.mean_block);
  Alcotest.(check bool) "fewer singleton cohorts" true
    (after.L.Attack.singleton_blocks <= before.L.Attack.singleton_blocks)

let test_attack_fs_matcher () =
  let md = small_md ~tuples:150 () in
  let oracle = oracle_of md in
  let agreement = L.Attack.run oracle md in
  let fs = L.Attack.run ~matcher:`Fellegi_sunter oracle md in
  (* Blocking statistics are matcher-independent. *)
  Alcotest.(check (float 1e-9)) "same cohorts" agreement.L.Attack.mean_block
    fs.L.Attack.mean_block;
  Alcotest.(check bool) "fs attack lands hits" true (fs.L.Attack.exact_hits > 0)

let test_attack_success_rate_bounds () =
  let md = small_md ~tuples:100 () in
  let oracle = oracle_of md in
  let result = L.Attack.run oracle md in
  let rate = L.Attack.success_rate result in
  Alcotest.(check bool) "rate in [0,1]" true (rate >= 0.0 && rate <= 1.0)

let test_attack_rendering () =
  let md = small_md ~tuples:50 () in
  let oracle = oracle_of md in
  let text = Format.asprintf "%a" L.Attack.pp (L.Attack.run oracle md) in
  Alcotest.(check bool) "mentions cohort" true
    (Astring_contains.contains text "cohort")

(* --- Fellegi-Sunter probabilistic matching -------------------------------- *)

let test_fs_weights_favor_rare_attributes () =
  let md = small_md () in
  let oracle = oracle_of md in
  let fs = L.Fellegi_sunter.estimate oracle in
  let width = List.length (S.Microdata.quasi_identifiers md) in
  for j = 0 to width - 1 do
    Alcotest.(check bool) "agreement positive" true
      (L.Fellegi_sunter.agreement_weight fs j > 0.0);
    Alcotest.(check bool) "disagreement negative" true
      (L.Fellegi_sunter.disagreement_weight fs j < 0.0)
  done;
  (* A Zipf-skewed column (many repeats -> high u) must weigh less than a
     near-unique column would; compare the extreme: a synthetic oracle
     where attribute agreement is near-certain. *)
  let full_agree = L.Fellegi_sunter.score fs (S.Microdata.qi_projection md 0)
      (S.Microdata.qi_projection md 0) in
  Alcotest.(check bool) "self-score positive" true (full_agree > 0.0)

let test_fs_null_contributes_nothing () =
  let md = S.Microdata.copy (small_md ()) in
  let oracle = oracle_of md in
  let fs = L.Fellegi_sunter.estimate oracle in
  let target = S.Microdata.qi_projection md 3 in
  let candidate = L.Oracle.qi_values oracle 0 in
  let base = L.Fellegi_sunter.score fs target candidate in
  let ids = Vadasa_base.Ids.create () in
  ignore (S.Suppression.suppress ids md ~tuple:3 ~attr:"qi_1");
  let nulled = S.Microdata.qi_projection md 3 in
  let after = L.Fellegi_sunter.score fs nulled candidate in
  (* Removing one attribute's evidence moves the score toward zero by that
     attribute's weight, never past the remaining evidence. *)
  Alcotest.(check bool) "score changed by one attribute's weight" true
    (abs_float (after -. base) > 0.0)

let test_fs_classify () =
  let md = small_md () in
  let oracle = oracle_of md in
  let fs = L.Fellegi_sunter.estimate oracle in
  Alcotest.(check bool) "match above upper" true
    (L.Fellegi_sunter.classify fs ~upper:5.0 ~lower:0.0 9.9
    = L.Fellegi_sunter.Match);
  Alcotest.(check bool) "non-match below lower" true
    (L.Fellegi_sunter.classify fs ~upper:5.0 ~lower:0.0 (-3.0)
    = L.Fellegi_sunter.Non_match);
  Alcotest.(check bool) "possible in between" true
    (L.Fellegi_sunter.classify fs ~upper:5.0 ~lower:0.0 2.0
    = L.Fellegi_sunter.Possible)

let test_fs_best_guess_finds_respondent () =
  (* With exact QI values and FS ranking, the true respondent must be
     among the top-scored candidates of its own cohort. *)
  let md = small_md ~tuples:100 () in
  let oracle = oracle_of md in
  let fs = L.Fellegi_sunter.estimate oracle in
  let blocking = L.Blocking.build oracle in
  let rng = Vadasa_stats.Rng.create ~seed:13 in
  let hits = ref 0 in
  for i = 0 to 99 do
    let target = S.Microdata.qi_projection md i in
    let cohort = L.Blocking.candidates blocking target in
    match L.Fellegi_sunter.best_guess rng fs oracle target cohort with
    | Some guess ->
      if String.equal guess.L.Matching.identity (L.Oracle.true_identity oracle i)
      then incr hits
    | None -> ()
  done;
  Alcotest.(check bool) "some exact hits" true (!hits > 0)

let prop_expected_hits_bounded_by_attempted =
  QCheck2.Test.make ~name:"expected hits never exceed attempted tuples" ~count:10
    QCheck2.Gen.(int_range 20 150)
    (fun n ->
      let md = small_md ~tuples:n () in
      let oracle = oracle_of md in
      let r = L.Attack.run oracle md in
      r.L.Attack.expected_hits <= float_of_int r.L.Attack.attempted +. 1e-9)

let prop_blocking_monotone_under_suppression =
  QCheck2.Test.make
    ~name:"suppressing any attribute never shrinks a blocking cohort" ~count:10
    QCheck2.Gen.(pair (int_range 20 100) (int_bound 3))
    (fun (n, attr_idx) ->
      let md = S.Microdata.copy (small_md ~tuples:n ()) in
      let oracle = oracle_of md in
      let blocking = L.Blocking.build oracle in
      let tuple = n / 2 in
      let before = L.Blocking.block_size blocking (S.Microdata.qi_projection md tuple) in
      let attr = List.nth (S.Microdata.quasi_identifiers md) attr_idx in
      let ids = Vadasa_base.Ids.create () in
      ignore (S.Suppression.suppress ids md ~tuple ~attr);
      let after = L.Blocking.block_size blocking (S.Microdata.qi_projection md tuple) in
      after >= before)

let () =
  Alcotest.run "linkage"
    [
      ( "oracle",
        [ Alcotest.test_case "construction" `Quick test_oracle_construction ] );
      ( "blocking",
        [
          Alcotest.test_case "exact" `Quick test_blocking_exact;
          Alcotest.test_case "null wildcard" `Quick test_blocking_null_wildcard;
          Alcotest.test_case "types kept apart" `Quick test_blocking_type_confusion;
        ] );
      ("matching", [ Alcotest.test_case "score" `Quick test_matching_score ]);
      ( "fellegi-sunter",
        [
          Alcotest.test_case "weights" `Quick test_fs_weights_favor_rare_attributes;
          Alcotest.test_case "null evidence" `Quick test_fs_null_contributes_nothing;
          Alcotest.test_case "classification" `Quick test_fs_classify;
          Alcotest.test_case "best guess" `Quick test_fs_best_guess_finds_respondent;
        ] );
      ( "attack",
        [
          Alcotest.test_case "baseline hits" `Quick test_attack_baseline_hits;
          Alcotest.test_case "defeated by anonymization" `Slow
            test_attack_defeated_by_anonymization;
          Alcotest.test_case "success rate bounds" `Quick
            test_attack_success_rate_bounds;
          Alcotest.test_case "Fellegi-Sunter matcher" `Quick test_attack_fs_matcher;
          Alcotest.test_case "rendering" `Quick test_attack_rendering;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_expected_hits_bounded_by_attempted;
            prop_blocking_monotone_under_suppression;
          ] );
    ]
