(* The two batch workloads: the CLI's risk pipelines run in-process on
   generated CSV documents, one job after another.

   batch-reasoned  [vadasa risk --reasoned]: decode, categorize, native
                   estimate, then the same measure as a Vadalog program
                   on a one-domain engine. The chase dominates.
   batch-native    [vadasa risk] for three measures plus [vadasa
                   anonymize]: decode, categorize, k-anonymity / SUDA /
                   Monte Carlo estimates, the suppression cycle, CSV
                   encode. The engine does no work. *)

open Util
module R = Vadasa_relational
module S = Vadasa_sdc
module V = Vadasa_vadalog
module D = Vadasa_datagen

type kind = Reasoned | Native

type sizes = { datasets : int; rows : int }

let sizes kind ~small =
  match (kind, small) with
  | Reasoned, false -> { datasets = 3; rows = 5_000 }
  | Native, false -> { datasets = 3; rows = 6_250 }
  | _, true -> { datasets = 2; rows = 400 }

(* Figure 6 shapes: R25A4U (unbalanced) and R25A4V (very unbalanced),
   four quasi-identifiers, resized to [rows]. *)
let generate kind ~seed sz =
  let name, distribution =
    match kind with
    | Reasoned -> ("R25A4U", D.Generator.U)
    | Native -> ("R25A4V", D.Generator.V)
  in
  Array.init sz.datasets (fun i ->
      let md =
        D.Generator.generate
          {
            D.Generator.name;
            tuples = sz.rows;
            qi_count = 4;
            distribution;
            seed = (seed * 1000) + i + 1;
          }
      in
      (name, R.Csv.write_string (S.Microdata.relation md)))

let reasoned_measures =
  [| S.Risk.K_anonymity { k = 2 }; S.Risk.Re_identification;
     S.Risk.Individual S.Risk.Naive |]

let risk_span = function
  | S.Risk.K_anonymity _ -> "risk.k_anonymity"
  | S.Risk.Re_identification -> "risk.reidentification"
  | S.Risk.Individual _ -> "risk.individual"
  | S.Risk.Suda _ -> "risk.suda"
  | S.Risk.Custom _ -> "risk.custom"

let reasoned_spans =
  [ "bridge.facts"; "vadalog.compile"; "engine.load"; "engine.chase";
    "engine.decode" ]

let risk_spans =
  [ "risk.k_anonymity"; "risk.reidentification"; "risk.suda";
    "risk.individual" ]

type job = {
  ok : bool;
  wall_s : float;  (* the pipeline's own time; checks excluded *)
  rows : int;
  read_s : float;  (* decode + categorize + native estimates *)
  reason_s : float;  (* bridge through decode_risks; 0 on batch-native *)
  write_s : float;  (* cycle + encode; 0 on batch-reasoned *)
  info_loss : float;
}

let decode_and_categorize tr (name, csv) =
  let rel = span tr "csv.decode" (fun () -> R.Csv.read_string ~name csv) in
  match span tr "categorize.run" (fun () -> S.Categorize.categorize_microdata rel) with
  | Ok md -> md
  | Error msg -> failwith msg

(* Work counters of a saturated engine, recorded on traced runs. *)
let record_engine tr engine ~facts =
  if tr.on then begin
    let rows = (V.Engine.profile_report engine).V.Profile.rows in
    let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rows) in
    count tr "bridge.facts" (float_of_int (List.length facts));
    count tr "engine.facts" (float_of_int (V.Database.total (V.Engine.database engine)));
    count tr "engine.scanned" (sum (fun r -> r.V.Profile.row_scanned));
    count tr "engine.matched" (sum (fun r -> r.V.Profile.row_matched));
    count tr "engine.duplicates" (sum (fun r -> r.V.Profile.row_duplicates));
    count tr "engine.emitted" (sum (fun r -> r.V.Profile.row_emitted))
  end

let exact_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* One [vadasa risk --reasoned] job. The check: engine risks equal the
   native risks exactly. [corrupt] perturbs the native side. *)
let reasoned_job tr ~corrupt input measure =
  let t0 = now () in
  let md = decode_and_categorize tr input in
  let report = span tr (risk_span measure) (fun () -> S.Risk.estimate measure md) in
  let t1 = now () in
  let facts = span tr "bridge.facts" (fun () -> S.Vadalog_bridge.microdata_facts md) in
  let parsed, strat =
    span tr "vadalog.compile" (fun () ->
        let p = V.Parser.parse (S.Vadalog_bridge.program_of_measure measure) in
        (p, V.Stratify.compute p))
  in
  let engine =
    span tr "engine.load" (fun () ->
        V.Engine.create ~domains:1 ~strat
          (V.Program.union parsed (V.Program.make ~facts [])))
  in
  span tr "engine.chase" (fun () -> V.Engine.run engine);
  let risks =
    span tr "engine.decode" (fun () ->
        S.Vadalog_bridge.decode_risks engine (S.Microdata.cardinal md))
  in
  let t2 = now () in
  record_engine tr engine ~facts;
  let native = Array.copy report.S.Risk.risk in
  if corrupt && Array.length native > 0 then native.(0) <- native.(0) +. 0.5;
  {
    ok = exact_equal risks native;
    wall_s = t2 -. t0;
    rows = S.Microdata.cardinal md;
    read_s = t1 -. t0;
    reason_s = t2 -. t1;
    write_s = 0.0;
    info_loss = 0.0;
  }

let cycle_config =
  {
    S.Cycle.default_config with
    S.Cycle.measure = S.Risk.K_anonymity { k = 3 };
    method_ = S.Cycle.Local_suppression;
    semantics = R.Null_semantics.Maybe_match;
  }

(* One [vadasa risk] x3 + [vadasa anonymize] job. The check: re-estimating
   the released data leaves no tuple over the threshold that the cycle
   did not report as unresolved. [corrupt] re-estimates the input
   instead of the release. *)
let native_job tr ~corrupt ~seed input =
  let t0 = now () in
  let md = decode_and_categorize tr input in
  let estimate m = ignore (span tr (risk_span m) (fun () -> S.Risk.estimate m md)) in
  estimate (S.Risk.K_anonymity { k = 3 });
  estimate (S.Risk.Suda { max_msu_size = 3; threshold_size = 3 });
  estimate (S.Risk.Individual (S.Risk.Monte_carlo { samples = 200; seed }));
  let t1 = now () in
  let outcome = span tr "cycle.run" (fun () -> S.Cycle.run ~config:cycle_config md) in
  let csv =
    span tr "csv.encode" (fun () ->
        R.Csv.write_string (S.Microdata.relation outcome.S.Cycle.anonymized))
  in
  let t2 = now () in
  count tr "cycle.rounds" (float_of_int outcome.S.Cycle.rounds);
  count tr "cycle.nulls" (float_of_int outcome.S.Cycle.nulls_injected);
  let released = if corrupt then md else outcome.S.Cycle.anonymized in
  let report =
    S.Risk.estimate ~semantics:cycle_config.S.Cycle.semantics
      cycle_config.S.Cycle.measure released
  in
  let ok =
    outcome.S.Cycle.interrupted = None
    && String.length csv > 0
    && List.for_all
         (fun i -> List.mem i outcome.S.Cycle.unresolved)
         (S.Risk.risky report ~threshold:cycle_config.S.Cycle.threshold)
  in
  {
    ok;
    wall_s = t2 -. t0;
    rows = S.Microdata.cardinal md;
    read_s = t1 -. t0;
    reason_s = 0.0;
    write_s = t2 -. t1;
    info_loss = outcome.S.Cycle.info_loss;
  }

(* Jobs cycle through datasets (and, on batch-reasoned, measures) in a
   fixed order, so any run of [cycle_length] consecutive jobs does the
   same work. *)
let cycle_length kind sz =
  match kind with
  | Reasoned -> Array.length reasoned_measures * sz.datasets
  | Native -> sz.datasets

let run_job kind tr ~corrupt ~seed inputs i =
  match kind with
  | Reasoned ->
    let m = Array.length reasoned_measures in
    reasoned_job tr ~corrupt inputs.((i / m) mod Array.length inputs)
      reasoned_measures.(i mod m)
  | Native -> native_job tr ~corrupt ~seed inputs.(i mod Array.length inputs)

(* Run whole job cycles while the next one fits before [deadline] (at
   least one), so every run does the same mix of work. A job that raises
   counts as failed. Job [i] runs under [tracer i]; a traced job also
   reports the part of its wall time no span covers. With [calibrate]
   the reference kernel runs before the first job and after each one,
   and each job carries its host speed factor (1.0 without). *)
let loop kind ~corrupt ~seed inputs ~cycle ~calibrate ~tracer ~deadline =
  let jobs = ref [] and i = ref 0 and failed = ref 0 and refs = ref [] in
  let reference () =
    if calibrate then begin
      let r = reference_ms () in
      refs := r :: !refs;
      r
    end
    else reference_nominal_ms
  in
  let before = ref (reference ()) in
  let start = now () in
  let fits () =
    !i = 0
    || now () +. ((now () -. start) /. float_of_int (!i / cycle)) <= deadline
  in
  while fits () do
    for _ = 1 to cycle do
      let tr = tracer !i in
      tr.spanned <- 0.0;
      (match run_job kind tr ~corrupt:(corrupt && !i = 0) ~seed inputs !i with
      | j ->
        let after = reference () in
        if not j.ok then incr failed;
        jobs := (tr.on, j, j.wall_s -. tr.spanned, speed_factor ~before:!before ~after) :: !jobs;
        before := after
      | exception e ->
        Printf.eprintf "perfbench: job %d raised %s\n%!" !i (Printexc.to_string e);
        incr failed;
        before := reference ());
      incr i
    done
  done;
  (List.rev !jobs, !i, !failed, !refs)

let setup_repeats = 3

let run kind ~seed ~seconds ~traced ~corrupt ~small =
  let sz = sizes kind ~small in
  let off = trace false in
  (* Set-up: generate and encode the inputs, then one warm-up job so
     lazy initialisation is paid before timing. Repeated, each time
     between two runs of the reference kernel; the median of the scaled
     times is reported. *)
  let setups, raw_setups, inputs =
    let times = ref [] and raws = ref [] and last = ref [||] in
    let before = ref (reference_ms ()) in
    for _ = 1 to setup_repeats do
      let t0 = now () in
      let inputs = generate kind ~seed sz in
      ignore (run_job kind off ~corrupt:false ~seed inputs 0);
      let dt = now () -. t0 in
      let after = reference_ms () in
      times := (dt *. speed_factor ~before:!before ~after) :: !times;
      raws := dt :: !raws;
      before := after;
      last := inputs
    done;
    (!times, !raws, !last)
  in
  let cycle = cycle_length kind sz in
  let loop = loop kind ~corrupt ~seed inputs ~cycle in
  let walls jobs = List.map (fun (_, j, _, _) -> ms j.wall_s) jobs in
  let stamp =
    [
      ("seed", Json.Int seed);
      ( "inputs",
        Json.Obj
          [
            ("datasets", Json.Int sz.datasets); ("rows", Json.Int sz.rows);
            ("shape", Json.Str (fst inputs.(0)));
          ] );
      ("engine_domains", Json.Int 1);
    ]
  in
  if not traced then begin
    let jobs, attempted, failed, refs =
      loop ~calibrate:true ~tracer:(fun _ -> off) ~deadline:(now () +. seconds)
    in
    (* Every time below is scaled to the reference host speed. *)
    let scaled = List.map (fun (_, j, _, f) -> ms j.wall_s *. f) jobs in
    (* Throughput over the pipeline's own time, checks excluded. *)
    let busy = List.fold_left ( +. ) 0.0 scaled /. 1000.0 in
    let run_t = tail scaled in
    let read = List.map (fun (_, j, _, f) -> ms j.read_s *. f) jobs in
    let read_t = tail read in
    let rows = List.fold_left (fun acc (_, j, _, _) -> acc + j.rows) 0 jobs in
    {
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" (median setups);
          metric "ok_ratio" "ratio"
            (1.0 -. (float_of_int failed /. float_of_int attempted));
          metric "peak_rss_mb" "MB" (peak_rss_mb None);
          metric "rows_per_s" "1/s" (float_of_int rows /. busy);
          metric "req_per_s" "1/s" (float_of_int (List.length jobs) /. busy);
          metric "run_p50_ms" "ms" (median scaled);
          metric "run_tail_ms" "ms" run_t.value;
          metric "read_p50_ms" "ms" (median read);
          metric "read_tail_ms" "ms" read_t.value;
        ];
      stamp =
        stamp
        @ [
            ("tails", Json.Obj [ ("run_tail_ms", tail_json run_t);
                                 ("read_tail_ms", tail_json read_t) ]);
            ( "host_speed",
              Json.Obj
                [
                  ("reference_nominal_ms", Json.Float reference_nominal_ms);
                  ("reference_p50_ms", Json.Float (median refs));
                  ("raw_setup_s", Json.Float (median raw_setups));
                  ("raw_run_p50_ms", Json.Float (median (walls jobs)));
                ] );
          ];
    }
  end
  else begin
    (* Whole job cycles alternate untraced and traced, so both see the
       same inputs and heap; their mean job times give the tracing cost. *)
    let tr = trace true in
    let alloc0 = Gc.allocated_bytes () and major0 = major_collections () in
    let all, attempted, failed, _ =
      loop ~calibrate:false ~tracer:(fun i -> if i / cycle mod 2 = 1 then tr else off)
        ~deadline:(now () +. seconds)
    in
    let alloc = Gc.allocated_bytes () -. alloc0
    and major = major_collections () - major0 in
    let jobs = List.filter (fun (on, _, _, _) -> on) all in
    let n = float_of_int (List.length jobs) in
    let per_job name = ms (total tr name) /. n in
    let per_job_count name = counted tr name /. n in
    let sum_spans names = List.fold_left (fun acc s -> acc +. total tr s) 0.0 names in
    let ratio a b = if b > 0.0 then a /. b else 0.0 in
    let paired = List.length all / (2 * cycle) * 2 * cycle in
    let paired_mean on =
      mean (walls (List.filteri (fun i (o, _, _, _) -> i < paired && o = on) all))
    in
    let reason = List.map (fun (_, j, _, _) -> ms j.reason_s) jobs in
    let write = List.map (fun (_, j, _, _) -> ms j.write_s) jobs in
    let zero_if_unused xs f = if List.for_all (fun x -> x = 0.0) xs then 0.0 else f xs in
    let total_jobs = float_of_int (List.length all) in
    {
      attempted;
      failed;
      metrics =
        Layers.of_list
          [
            ("csv.decode_ms", per_job "csv.decode");
            ("csv.encode_ms", per_job "csv.encode");
            ("categorize.run_ms", per_job "categorize.run");
            ("risk.k_anonymity_ms", per_job "risk.k_anonymity");
            ("risk.reidentification_ms", per_job "risk.reidentification");
            ("risk.suda_ms", per_job "risk.suda");
            ("risk.individual_ms", per_job "risk.individual");
            ("cycle.run_ms", per_job "cycle.run");
            ("cycle.rounds", per_job_count "cycle.rounds");
            ("cycle.nulls", per_job_count "cycle.nulls");
            ("bridge.facts_ms", per_job "bridge.facts");
            ("bridge.facts", per_job_count "bridge.facts");
            ("vadalog.compile_ms", per_job "vadalog.compile");
            ("engine.load_ms", per_job "engine.load");
            ("engine.chase_ms", per_job "engine.chase");
            ("engine.decode_ms", per_job "engine.decode");
            ("engine.facts", per_job_count "engine.facts");
            ("engine.scanned", per_job_count "engine.scanned");
            ( "engine.match_ratio",
              ratio (counted tr "engine.matched") (counted tr "engine.scanned") );
            ( "engine.dup_ratio",
              ratio (counted tr "engine.duplicates") (counted tr "engine.emitted") );
            ( "bridge.reasoned_native_ratio",
              ratio (sum_spans reasoned_spans) (sum_spans risk_spans) );
            ("gc.alloc_mb", alloc /. total_jobs /. 1048576.0);
            ("gc.major_collections", float_of_int major /. total_jobs);
            ( "bench.unattributed_ms",
              ms (List.fold_left (fun acc (_, _, u, _) -> acc +. u) 0.0 jobs) /. n );
            ("bench.trace_overhead", ratio (paired_mean true) (paired_mean false) -. 1.0);
            ("reason_p50_ms", zero_if_unused reason median);
            ("reason_tail_ms", zero_if_unused reason (fun xs -> (tail xs).value));
            ("write_p50_ms", zero_if_unused write median);
            ("write_tail_ms", zero_if_unused write (fun xs -> (tail xs).value));
            ("info_loss", mean (List.map (fun (_, j, _, _) -> j.info_loss) jobs));
            ("fail_ratio", float_of_int failed /. float_of_int attempted);
          ];
      stamp =
        stamp
        @ [ ("jobs", Json.Int (List.length all)); ("traced_jobs", Json.Int (List.length jobs)) ];
    }
  end
