(* Entry point of the repository benchmark (see README.md here).

     main.exe --workload W --seed N --seconds S --trace 0|1 --vadasa BIN
         one run; the last stdout line is the result object, the line
         before it the stamp (seed, input sizes, host shape, tails)
     main.exe --smoke --vadasa BIN
         short runs of every workload on small inputs: every metric
         named in BENCHMARK.json is emitted with its unit, and a
         corrupted check input is counted as a failure
     main.exe --compare OLD NEW
         compare two files of saved run output per workload and metric;
         refuses results taken on different host shapes *)

open Util

let workloads = [ "batch-reasoned"; "batch-native"; "serve-mixed" ]

let run_workload ~vadasa ~name ~seed ~seconds ~traced ~corrupt ~small =
  match name with
  | "batch-reasoned" -> Batch.run Batch.Reasoned ~seed ~seconds ~traced ~corrupt ~small
  | "batch-native" -> Batch.run Batch.Native ~seed ~seconds ~traced ~corrupt ~small
  | "serve-mixed" -> Serve.run ~vadasa ~seed ~seconds ~traced ~corrupt ~small
  | other -> failwith ("unknown workload " ^ other)

let stamp_json ~name ~traced (r : result) =
  Json.Obj
    [
      ( "stamp",
        Json.Obj
          ([
             ("workload", Json.Str name);
             ("trace", Json.Int (if traced then 1 else 0));
             ("host", host_shape ());
           ]
          @ r.stamp) );
    ]

(* ---- BENCHMARK.json ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let spec () =
  match Json.of_string (read_file "BENCHMARK.json") with
  | Ok json -> json
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)

let list_of json key = Option.value ~default:[] (Option.bind (Json.member key json) Json.to_list_opt)

let str json key = Option.value ~default:"" (Option.bind (Json.member key json) Json.to_string_opt)

(* [(name, unit, better, bound)] of a metric section. *)
let metrics_of json key =
  List.map
    (fun m ->
      ( str m "name",
        str m "unit",
        str m "better",
        Option.bind (Json.member "bound" m) Json.to_float_opt ))
    (list_of json key)

(* ---- smoke ---------------------------------------------------------------- *)

let smoke ~vadasa =
  let spec = spec () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expect_metrics ~name ~section (r : result) ~nonzero =
    let declared = metrics_of spec section in
    List.iter
      (fun (m, u, _, _) ->
        match List.find_opt (fun x -> x.name = m) r.metrics with
        | None -> problem "%s: %s metric %s not emitted" name section m
        | Some x when x.unit_ <> u -> problem "%s: %s has unit %s, declared %s" name m x.unit_ u
        | Some x when not (Float.is_finite x.value) -> problem "%s: %s is not finite" name m
        | Some x when nonzero && x.value = 0.0 -> problem "%s: %s is 0" name m
        | Some _ -> ())
      declared;
    List.iter
      (fun x ->
        if not (List.exists (fun (m, _, _, _) -> m = x.name) declared) then
          problem "%s: emits undeclared %s metric %s" name section x.name)
      r.metrics
  in
  List.iter
    (fun w ->
      let name = str w "name" in
      let go ~traced ~corrupt =
        run_workload ~vadasa ~name ~seed:7 ~seconds:1.0 ~traced ~corrupt ~small:true
      in
      let plain = go ~traced:false ~corrupt:false in
      if plain.failed > 0 then problem "%s: %d of %d checks failed" name plain.failed plain.attempted;
      expect_metrics ~name ~section:"end_to_end" plain ~nonzero:true;
      expect_metrics ~name ~section:"per_layer" (go ~traced:true ~corrupt:false) ~nonzero:false;
      let spoiled = go ~traced:false ~corrupt:true in
      if spoiled.failed = 0 then problem "%s: corrupted check input was not counted as failed" name;
      Printf.printf "smoke %s: %d ops, %d failed; corrupted: %d of %d failed\n%!" name
        plain.attempted plain.failed spoiled.failed spoiled.attempted)
    (list_of spec "workloads");
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    exit 1

(* ---- compare -------------------------------------------------------------- *)

(* Saved output: stamp lines each followed by their result line. *)
let load_runs path =
  let lines = String.split_on_char '\n' (read_file path) in
  let runs = ref [] and stamp = ref None in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok json -> (
        match (Json.member "stamp" json, Json.member "metrics" json, !stamp) with
        | Some s, _, _ -> stamp := Some s
        | None, Some metrics, Some s ->
          runs := (s, metrics) :: !runs;
          stamp := None
        | _ -> ())
      | Error _ -> ())
    lines;
  List.rev !runs

let compare_files old_path new_path =
  let spec = spec () in
  let bounds = metrics_of spec "end_to_end" @ metrics_of spec "per_layer" in
  let old_runs = load_runs old_path and new_runs = load_runs new_path in
  let shape (s, _) =
    Option.fold ~none:"?" ~some:(Json.to_string) (Json.member "host" s)
  in
  (match List.sort_uniq compare (List.map shape (old_runs @ new_runs)) with
  | [ _ ] -> ()
  | [] ->
    prerr_endline "compare: no results found";
    exit 2
  | shapes ->
    prerr_endline "compare: refusing results taken on different host shapes:";
    List.iter (fun s -> prerr_endline ("  " ^ s)) shapes;
    exit 2);
  let values runs workload metric =
    List.filter_map
      (fun (s, metrics) ->
        if Option.bind (Json.member "workload" s) Json.to_string_opt = Some workload then
          Option.bind (Json.member metric metrics) (fun m ->
              Option.bind (Json.member "value" m) Json.to_float_opt)
        else None)
      runs
  in
  let regressed = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, unit_, better, bound) ->
          match (values old_runs workload metric, values new_runs workload metric) with
          | [], _ | _, [] -> ()
          | a, b ->
            let ma = median a and mb = median b in
            let worse =
              if ma = 0.0 then 0.0
              else if better = "higher" then (ma -. mb) /. Float.abs ma
              else (mb -. ma) /. Float.abs ma
            in
            let verdict =
              match bound with
              | Some bd when worse > bd ->
                regressed := true;
                "WORSE"
              | Some _ -> "ok"
              | None -> ""
            in
            Printf.printf "%-15s %-30s %12.4f -> %12.4f %-6s (%d/%d runs) %+7.2f%% worse %s\n"
              workload metric ma mb unit_ (List.length a) (List.length b)
              (100.0 *. worse) verdict)
        bounds)
    workloads;
  if !regressed then exit 1

(* ---- command line --------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through [at_exit] on a signal, so server children are stopped. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref 0 in
  let vadasa = ref "" and smoke_mode = ref false and compare = ref [] in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--vadasa", Arg.Set_string vadasa, "BIN the vadasa executable (serve-mixed)");
      ("--smoke", Arg.Set smoke_mode, " short self-check of every workload");
      ( "--compare",
        Arg.Tuple
          [ Arg.String (fun s -> compare := s :: !compare);
            Arg.String (fun s -> compare := s :: !compare) ],
        "OLD NEW compare saved run output" );
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  match (!smoke_mode, List.rev !compare) with
  | _, [ old_path; new_path ] -> compare_files old_path new_path
  | true, _ -> smoke ~vadasa:!vadasa
  | false, _ ->
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    let traced = !traced = 1 in
    let r =
      run_workload ~vadasa:!vadasa ~name:!workload ~seed:!seed ~seconds:!seconds ~traced
        ~corrupt:false ~small:false
    in
    print_endline (Json.to_string (stamp_json ~name:!workload ~traced r));
    print_endline (Json.to_string (result_json r))
