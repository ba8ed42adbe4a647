(* The serve-mixed workload: a [vadasa serve --domains 2 --data-dir]
   child process driven closed-loop by two keep-alive clients in this
   process, each walking its own seeded operation schedule:

   - reads (70%): POST /v1/risk on 5k-row payloads the dataset cache
     already holds, and GET /v1/datasets/{id}/risk;
   - reasons (10%): POST /v1/reason on 1k-row payloads;
   - writes (20%): POST /v1/datasets/{id}/facts appending 100 new rows
     to a registered 2k-4k-row dataset, journaled under the server's
     default flush policy.

   Each client owns two of the four datasets: it alone reads and appends
   them, taking them in turn, so both clients' datasets grow alike and no
   read waits on the other client's append holding the dataset's lock.
   Reads and writes still share the server's two workers.

   A traced run also replays a prefix of the two schedules, interleaved,
   in-process: once through [Handlers.router] (handler time, no spans)
   and once composing the public calls each handler makes, each in a
   span. *)

open Util
module R = Vadasa_relational
module S = Vadasa_sdc
module V = Vadasa_vadalog
module D = Vadasa_datagen
module Srv = Vadasa_server

let clients = 2

let server_domains = 2

(* [vadasa serve]'s only journal policy: group commit, one write plus
   one fsync per batch, snapshot every 64 records. *)
let flush_policy = "group-commit-fsync/snapshot-every-64"

type op =
  | Risk_post of int  (* read: risk payload index *)
  | Risk_get of int  (* read: dataset index *)
  | Reason of int  (* reason payload index *)
  | Append of int * int  (* write: dataset index, delta index *)

type kind = Read | Reasoned | Write

let kind_of = function
  | Risk_post _ | Risk_get _ -> Read
  | Reason _ -> Reasoned
  | Append _ -> Write

type payload = {
  target : string;
  csv : string;
  rows : int;
  expected : string list;  (* acceptable response bodies *)
}

type dataset = { id : string; put : string; deltas : string array }

type inputs = {
  risks : payload array;
  reasons : payload array;
  datasets : dataset array;
  schedules : op array array;  (* one per client *)
  delta_rows : int;
  stamp : (string * Json.t) list;  (* input sizes *)
}

type sizes = {
  risk_rows : int;
  reason_rows : int;
  dataset_rows : int list;
  delta_rows : int;
}

let sizes ~small =
  if small then
    { risk_rows = 300; reason_rows = 100; dataset_rows = [ 200; 300 ]; delta_rows = 20 }
  else
    {
      risk_rows = 5_000;
      reason_rows = 1_000;
      dataset_rows = [ 2_000; 2_500; 4_000; 3_500 ];
      delta_rows = 100;
    }

let generate ~seed ~tuples ~index =
  D.Generator.generate
    {
      D.Generator.name = "R25A4U";
      tuples;
      qi_count = 4;
      distribution = D.Generator.U;
      seed = (seed * 1000) + index;
    }

let csv_of md = R.Csv.write_string (S.Microdata.relation md)

let slice md lo hi =
  let rel = S.Microdata.relation md in
  let out = R.Relation.create (R.Relation.schema rel) in
  for i = lo to hi - 1 do
    R.Relation.add out (R.Relation.get rel i)
  done;
  R.Csv.write_string out

let ok_or_fail = function
  | Ok v -> v
  | Error e -> failwith e.Vadasa_base.Error.message

let parse_raw raw =
  match Srv.Http.read_request (Srv.Http.reader_of_string raw) with
  | Ok req -> req
  | Error _ -> failwith "perfbench: unparseable request"

let post target body = Client.raw ~meth:"POST" ~target body

(* The response [POST /v1/risk] must return, computed in-process through
   the same decoding path from the same request bytes. *)
let expected_risk target csv =
  let payload = ok_or_fail (Srv.Codec.parse_payload (parse_raw (post target csv))) in
  let md = ok_or_fail (Srv.Codec.microdata_of_payload payload) in
  let measure = ok_or_fail (Srv.Codec.measure_of_options payload.Srv.Codec.options) in
  Srv.Codec.risk_report_string ~threshold:payload.Srv.Codec.options.Srv.Codec.threshold
    md (S.Risk.estimate measure md)

(* [POST /v1/reason]'s body, with and without a program-cache hit; the
   risks are the native ones, which the reasoned path must reproduce. *)
let expected_reason target csv =
  let payload = ok_or_fail (Srv.Codec.parse_payload (parse_raw (post target csv))) in
  let md = ok_or_fail (Srv.Codec.microdata_of_payload payload) in
  let measure = ok_or_fail (Srv.Codec.measure_of_options payload.Srv.Codec.options) in
  let warded =
    V.Wardedness.is_warded
      (V.Parser.parse (S.Vadalog_bridge.program_of_measure measure))
  in
  let risks = (S.Risk.estimate measure md).S.Risk.risk in
  List.map
    (fun cached ->
      Json.to_string ~indent:true
        (Srv.Codec.reason_json ~cached ~warded
           ~threshold:payload.Srv.Codec.options.Srv.Codec.threshold md risks)
      ^ "\n")
    [ true; false ]

let risk_measures = [| "measure=k-anonymity&k=2"; "measure=re-identification" |]

let reason_measures =
  [| "measure=k-anonymity&k=2"; "measure=re-identification";
     "measure=individual-naive" |]

let dataset_measure = "measure=k-anonymity&k=2"

(* Client [w]'s seeded schedule. Op kinds come in shuffled blocks of 20
   holding exactly 11 risk posts, 3 risk gets, 2 reasons and 4 appends
   (55/15/10/20), so every stretch of a run does the same mix whatever
   the seed. Each kind takes its payloads in turn, so every seed also
   sends each payload equally often; only the order within a block is
   random. Dataset reads and appends go to the client's own datasets
   ([d mod clients = w]); an append takes its dataset's next delta. *)
let block = Array.concat [ Array.make 11 `Post; Array.make 3 `Get; Array.make 2 `Reason; Array.make 4 `Append ]

let schedule ~seed ~length ~risks ~reasons ~datasets w =
  let rng = Random.State.make [| seed; w |] in
  let owned = List.filter (fun d -> d mod clients = w) (List.init datasets Fun.id) in
  let owned = Array.of_list owned in
  let next_delta = Array.make datasets 0 in
  let turn = Hashtbl.create 4 in
  let next kind n =
    let t = Option.value ~default:0 (Hashtbl.find_opt turn kind) in
    Hashtbl.replace turn kind (t + 1);
    t mod n
  in
  let kinds = Array.copy block in
  Array.init length (fun j ->
      let b = j mod Array.length kinds in
      if b = 0 then
        for i = Array.length kinds - 1 downto 1 do
          let k = Random.State.int rng (i + 1) in
          let t = kinds.(i) in
          kinds.(i) <- kinds.(k);
          kinds.(k) <- t
        done;
      match kinds.(b) with
      | `Post -> Risk_post (next `Post risks)
      | `Get -> Risk_get owned.(next `Get (Array.length owned))
      | `Reason -> Reason (next `Reason reasons)
      | `Append ->
        let d = owned.(next `Append (Array.length owned)) in
        let c = next_delta.(d) in
        next_delta.(d) <- c + 1;
        Append (d, c))

(* Each client walks its whole schedule, sized in whole blocks to last
   about [seconds] on the reference host (see [Util.reference_ms]). The
   work per run is fixed rather than the time: appends grow the datasets,
   so a slow host that got through fewer ops in a fixed time would also
   leave every later op cheaper. *)
let ops_per_client_second = 8.0

let schedule_length ~seconds =
  let blocks = Float.round (seconds *. ops_per_client_second /. float_of_int (Array.length block)) in
  Array.length block * max 5 (int_of_float blocks)

(* The replay order: the clients' schedules interleaved op by op. *)
let interleaved schedules =
  let n = Array.fold_left (fun acc s -> min acc (Array.length s)) max_int schedules in
  Array.init (n * Array.length schedules) (fun j ->
      schedules.(j mod Array.length schedules).(j / Array.length schedules))

(* [corrupt] spoils the expected body of the first risk payload, so
   every read of it must count as failed. *)
let make_inputs ~seed ~seconds ~small ~corrupt =
  let sz = sizes ~small in
  let risks =
    Array.init (Array.length risk_measures) (fun i ->
        let md = generate ~seed ~tuples:sz.risk_rows ~index:(1 + (i mod 2)) in
        let csv = csv_of md in
        let target = Printf.sprintf "/v1/risk?%s&name=risk%d" risk_measures.(i) i in
        let expected = expected_risk target csv in
        let expected = if corrupt && i = 0 then expected ^ " " else expected in
        { target; csv; rows = sz.risk_rows; expected = [ expected ] })
  in
  let reasons =
    Array.mapi
      (fun i m ->
        let md = generate ~seed ~tuples:sz.reason_rows ~index:(10 + i) in
        let csv = csv_of md in
        let target = Printf.sprintf "/v1/reason?%s&name=reason%d" m i in
        { target; csv; rows = sz.reason_rows; expected = expected_reason target csv })
      reason_measures
  in
  let n_datasets = List.length sz.dataset_rows in
  let length = schedule_length ~seconds in
  let schedules =
    Array.init clients
      (schedule ~seed ~length ~risks:(Array.length risks)
         ~reasons:(Array.length reasons) ~datasets:n_datasets)
  in
  let appends d =
    Array.fold_left
      (Array.fold_left (fun acc op ->
           match op with Append (d', _) when d' = d -> acc + 1 | _ -> acc))
      0 schedules
  in
  let datasets =
    Array.of_list
      (List.mapi
         (fun d rows ->
           let n = appends d in
           (* One generation per dataset, so delta rows (and their ids)
              never repeat base rows. *)
           let md = generate ~seed ~tuples:(rows + (n * sz.delta_rows)) ~index:(20 + d) in
           let id = Printf.sprintf "ds%d" d in
           {
             id;
             put =
               Client.raw ~meth:"PUT"
                 ~target:(Printf.sprintf "/v1/datasets/%s?%s&name=%s" id dataset_measure id)
                 (slice md 0 rows);
             deltas =
               Array.init n (fun c ->
                   let lo = rows + (c * sz.delta_rows) in
                   slice md lo (lo + sz.delta_rows));
           })
         sz.dataset_rows)
  in
  {
    risks;
    reasons;
    datasets;
    schedules;
    delta_rows = sz.delta_rows;
    stamp =
      [
        ("risk_rows", Json.Int sz.risk_rows);
        ("reason_rows", Json.Int sz.reason_rows);
        ("dataset_rows", Json.List (List.map (fun r -> Json.Int r) sz.dataset_rows));
        ("delta_rows", Json.Int sz.delta_rows);
        ("schedule_length_per_client", Json.Int length);
      ];
  }

let request_of inputs = function
  | Risk_post p -> post inputs.risks.(p).target inputs.risks.(p).csv
  | Risk_get d ->
    Client.raw ~meth:"GET"
      ~target:(Printf.sprintf "/v1/datasets/%s/risk" inputs.datasets.(d).id) ""
  | Reason q -> post inputs.reasons.(q).target inputs.reasons.(q).csv
  | Append (d, c) ->
    let ds = inputs.datasets.(d) in
    post (Printf.sprintf "/v1/datasets/%s/facts" ds.id) ds.deltas.(c)

(* The integer after ["name": ] in a JSON body, if any. *)
let int_field body name =
  let key = Printf.sprintf "\"%s\": " name in
  match Client.find_sub body key 0 with
  | None -> None
  | Some i ->
    let j = ref (i + String.length key) in
    while !j < String.length body && body.[!j] >= '0' && body.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub body (i + String.length key) (!j - i - String.length key))

type sample = {
  op : op;
  latency : float;
  ok : bool;
  rows : int;
  rescored : int;  (* appends: rows the server re-scored *)
}

(* Whether a response is right for its op, plus the rows it covered. *)
let judge inputs op (resp : Client.response) =
  let good = resp.Client.status = 200 in
  match op with
  | Risk_post p ->
    (good && List.mem resp.Client.body inputs.risks.(p).expected,
     inputs.risks.(p).rows, 0)
  | Reason q ->
    (good && List.mem resp.Client.body inputs.reasons.(q).expected,
     inputs.reasons.(q).rows, 0)
  | Risk_get _ ->
    let tuples = int_field resp.Client.body "tuples" in
    (good && tuples <> None, Option.value ~default:0 tuples, 0)
  | Append _ ->
    let added = int_field resp.Client.body "rows_added" in
    let rescored = Option.value ~default:0 (int_field resp.Client.body "rows_rescored") in
    let rows = Option.value ~default:0 added in
    (good && rows = inputs.delta_rows, rows, rescored)

(* ---- the server process --------------------------------------------------- *)

type server = { pid : int; port : int; dir : string }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    if exited s.pid then ()
    else if now () > deadline then begin
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    end
    else begin
      Unix.sleepf 0.02;
      wait ()
    end
  in
  wait ();
  rm_rf s.dir

let live : server list ref = ref []

let () = at_exit (fun () -> List.iter stop_server !live)

let listening_port log =
  let key = "listening on http://127.0.0.1:" in
  match Client.find_sub log key 0 with
  | None -> None
  | Some i ->
    let start = i + String.length key in
    let j = ref start in
    while !j < String.length log && log.[!j] >= '0' && log.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub log start (!j - start))

let spawn ~vadasa ~tag =
  let dir = fresh_dir tag in
  let log = Filename.concat dir "server.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| vadasa; "serve"; "--port"; "0"; "--domains"; string_of_int server_domains;
       "--data-dir"; Filename.concat dir "data" |]
  in
  let pid = Unix.create_process vadasa args Unix.stdin fd fd in
  Unix.close fd;
  live := { pid; port = 0; dir } :: !live;
  let deadline = now () +. 60.0 in
  let rec await () =
    match listening_port (read_file log) with
    | Some port -> port
    | None ->
      if exited pid || now () > deadline then
        failwith ("vadasa serve did not start:\n" ^ read_file log)
      else begin
        Unix.sleepf 0.005;
        await ()
      end
  in
  { pid; port = await (); dir }

let retire s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  stop_server s

let must c raw =
  let resp = Client.send c raw in
  if resp.Client.status >= 300 then
    failwith (Printf.sprintf "set-up request failed (%d): %s" resp.Client.status resp.Client.body);
  resp

(* One request per payload fills the dataset and program caches. *)
let warm_ops inputs =
  List.init (Array.length inputs.risks) (fun i -> Risk_post i)
  @ List.init (Array.length inputs.reasons) (fun i -> Reason i)

(* Register the datasets and fill the caches. *)
let prepare send inputs =
  Array.iter (fun ds -> ignore (send ds.put)) inputs.datasets;
  List.iter (fun op -> ignore (send (request_of inputs op))) (warm_ops inputs)

let start_server ~vadasa inputs =
  let s = spawn ~vadasa ~tag:"serve" in
  let c = Client.create s.port in
  prepare (must c) inputs;
  Client.close c;
  s

(* ---- the closed loop ------------------------------------------------------ *)

(* The closed loop runs in segments of one schedule block per client.
   With [calibrate], the reference kernel is timed between segments,
   while the server is idle, on as many domains as the server has
   workers, and each segment's latencies and elapsed time are scaled by
   the host speed around it. The loop stops after [ops] ops per client,
   or at [deadline]. Returns the samples, the (scaled) elapsed time, the
   raw samples and the kernel times. *)
let drive inputs ~port ~ops ~calibrate ~deadline =
  let conns = Array.init clients (fun _ -> Client.create port) in
  let results = Array.make clients [] in
  let run_ops w lo hi =
    let c = conns.(w) and schedule = inputs.schedules.(w) in
    let rec go j acc =
      if j >= hi || j >= Array.length schedule then acc
      else begin
        let op = schedule.(j) in
        let raw = request_of inputs op in
        let t0 = now () in
        let sample =
          match Client.send c raw with
          | resp ->
            let latency = now () -. t0 in
            let ok, rows, rescored = judge inputs op resp in
            { op; latency; ok; rows; rescored }
          | exception e ->
            Printf.eprintf "perfbench: request %d failed: %s\n%!" j (Printexc.to_string e);
            { op; latency = now () -. t0; ok = false; rows = 0; rescored = 0 }
        in
        go (j + 1) (sample :: acc)
      end
    in
    results.(w) <- go lo []
  in
  let reference () =
    if calibrate then reference_ms ~domains:server_domains () else reference_nominal_ms
  in
  let rec segment lo ~before acc elapsed raw refs =
    if lo >= ops || now () >= deadline then (acc, elapsed, raw, refs)
    else begin
      let hi = min ops (lo + Array.length block) in
      let t0 = now () in
      let threads = List.init clients (fun w -> Thread.create (fun () -> run_ops w lo hi) ()) in
      List.iter Thread.join threads;
      let dt = now () -. t0 in
      let after = reference () in
      let f = speed_factor ~before ~after in
      let got = List.concat (Array.to_list results) in
      let scaled = List.map (fun s -> { s with latency = s.latency *. f }) got in
      segment hi ~before:after (scaled @ acc) (elapsed +. (dt *. f)) (got @ raw) (after :: refs)
    end
  in
  let before = reference () in
  let samples, elapsed, raw, refs = segment 0 ~before [] 0.0 [] [ before ] in
  Array.iter Client.close conns;
  (samples, elapsed, raw, refs)

(* After the loop: each dataset's maintained report must equal a fresh
   POST /v1/risk over its current (base + deltas) CSV. *)
let final_checks inputs port =
  let c = Client.create port in
  let checks =
    Array.map
      (fun ds ->
        match
          let got = Client.send c (Client.raw ~meth:"GET"
                                     ~target:(Printf.sprintf "/v1/datasets/%s/risk" ds.id) "") in
          let meta = Client.send c (Client.raw ~meth:"GET"
                                      ~target:(Printf.sprintf "/v1/datasets/%s?include=csv" ds.id) "") in
          let csv =
            match Json.of_string meta.Client.body with
            | Ok json -> Option.bind (Json.member "csv" json) Json.to_string_opt
            | Error _ -> None
          in
          match csv with
          | None -> false
          | Some csv ->
            let fresh =
              Client.send c
                (post (Printf.sprintf "/v1/risk?%s&name=%s" dataset_measure ds.id) csv)
            in
            got.Client.status = 200 && fresh.Client.status = 200
            && String.equal got.Client.body fresh.Client.body
        with
        | ok -> ok
        | exception e ->
          Printf.eprintf "perfbench: final check failed: %s\n%!" (Printexc.to_string e);
          false)
      inputs.datasets
  in
  Client.close c;
  Array.to_list checks

let scrape port =
  let c = Client.create port in
  let resp = Client.send c (Client.raw ~meth:"GET" ~target:"/metrics" "") in
  Client.close c;
  match Json.of_string resp.Client.body with
  | Ok json -> json
  | Error msg -> failwith ("unparseable /metrics: " ^ msg)

let rec path json = function
  | [] -> (match Json.to_float_opt json with Some f -> f | None -> 0.0)
  | k :: rest -> (
    match Json.member k json with Some j -> path j rest | None -> 0.0)

let latencies kind samples =
  List.filter_map
    (fun s -> if kind_of s.op = kind then Some (ms s.latency) else None)
    samples

(* ---- in-process replay ---------------------------------------------------- *)

let inproc_handlers tag =
  let dir = fresh_dir tag in
  let persist = Srv.Persist.open_ ~dir:(Filename.concat dir "data") () in
  let h = Srv.Handlers.create ~persist () in
  (dir, h, Srv.Handlers.router h)

let dispatch router raw =
  Srv.Http.response_to_string (Srv.Router.dispatch router (parse_raw raw))

let close_handlers (dir, h, _) =
  Srv.Handlers.shutdown h;
  rm_rf dir

(* One op composed from the public calls its handler makes, each in a
   span; returns whether the result is right. *)
let composed tr h inputs op =
  let raw = request_of inputs op in
  let req = parse_raw raw in
  let microdata () =
    let payload = span tr "codec.decode" (fun () -> ok_or_fail (Srv.Codec.parse_payload req)) in
    let key = Digest.to_hex (Digest.string (payload.Srv.Codec.options.Srv.Codec.name ^ "\x00" ^ payload.Srv.Codec.csv)) in
    let md =
      span tr "cache.dataset" (fun () ->
          Srv.Cache.find_or_build (Srv.Handlers.datasets h) key (fun _ ->
              span tr "csv.decode" (fun () ->
                  ok_or_fail (Srv.Codec.microdata_of_payload payload))))
    in
    let options = payload.Srv.Codec.options in
    (md, options, ok_or_fail (Srv.Codec.measure_of_options options))
  in
  let registry = Srv.Handlers.registry h in
  match op with
  | Risk_post p ->
    let md, options, measure = microdata () in
    let report = span tr (Batch.risk_span measure) (fun () -> S.Risk.estimate measure md) in
    let body =
      span tr "codec.encode" (fun () ->
          Srv.Codec.risk_report_string ~threshold:options.Srv.Codec.threshold md report)
    in
    List.mem body inputs.risks.(p).expected
  | Risk_get d ->
    let entry = span tr "registry.get" (fun () -> Srv.Registry.get registry inputs.datasets.(d).id) in
    let body =
      span tr "codec.encode" (fun () ->
          Srv.Codec.risk_report_string
            ~threshold:(Srv.Registry.entry_options entry).Srv.Codec.threshold
            (Srv.Registry.entry_md entry) (Srv.Registry.entry_report entry))
    in
    String.length body > 0
  | Reason q ->
    let md, options, measure = microdata () in
    let source = S.Vadalog_bridge.program_of_measure measure in
    let compiled, cached =
      span tr "vadalog.compile" (fun () ->
          Srv.Cache.find_or_build_hit (Srv.Handlers.programs h) source (fun src ->
              let program = V.Parser.parse src in
              {
                Srv.Handlers.program;
                strat = V.Stratify.compute program;
                warded = V.Wardedness.is_warded program;
              }))
    in
    let facts = span tr "bridge.facts" (fun () -> S.Vadalog_bridge.microdata_facts md) in
    let engine =
      span tr "engine.load" (fun () ->
          V.Engine.create ~strat:compiled.Srv.Handlers.strat
            (V.Program.union compiled.Srv.Handlers.program (V.Program.make ~facts [])))
    in
    span tr "engine.chase" (fun () -> V.Engine.run engine);
    let risks =
      span tr "engine.decode" (fun () ->
          S.Vadalog_bridge.decode_risks engine (S.Microdata.cardinal md))
    in
    Batch.record_engine tr engine ~facts;
    let body =
      span tr "codec.encode" (fun () ->
          Json.to_string ~indent:true
            (Srv.Codec.reason_json ~cached ~warded:compiled.Srv.Handlers.warded
               ~threshold:options.Srv.Codec.threshold md risks)
          ^ "\n")
    in
    List.mem body inputs.reasons.(q).expected
  | Append (d, _) ->
    let entry = span tr "registry.get" (fun () -> Srv.Registry.get registry inputs.datasets.(d).id) in
    let outcome =
      span tr "registry.append" (fun () ->
          Srv.Registry.append registry entry ~csv:req.Srv.Http.body)
    in
    outcome.Srv.Registry.rows_added = inputs.delta_rows

(* ---- the workload --------------------------------------------------------- *)

let setup_repeats = 3

let run ~vadasa ~seed ~seconds ~traced ~corrupt ~small =
  let inputs = make_inputs ~seed ~seconds ~small ~corrupt in
  (* Set-up: start the server, register the datasets, fill the caches.
     Repeated on fresh servers, each time between two runs of the
     reference kernel; the median of the scaled times is reported and
     the last server is measured. *)
  let server, setups, raw_setups =
    let repeats = if traced then 1 else setup_repeats in
    let rec go i ~before acc raws =
      let t0 = now () in
      let s = start_server ~vadasa inputs in
      let dt = now () -. t0 in
      let after = reference_ms ~domains:server_domains () in
      let acc = (dt *. speed_factor ~before ~after) :: acc and raws = dt :: raws in
      if i = repeats then (s, acc, raws)
      else begin
        retire s;
        go (i + 1) ~before:after acc raws
      end
    in
    go 1 ~before:(reference_ms ~domains:server_domains ()) [] []
  in
  let stamp =
    [
      ("seed", Json.Int seed);
      ("inputs", Json.Obj inputs.stamp);
      ("clients", Json.Int clients);
      ("server_domains", Json.Int server_domains);
      ("flush_policy", Json.Str flush_policy);
    ]
  in
  (* A traced run drives half the schedule (whole blocks), then replays. *)
  let length = Array.length inputs.schedules.(0) in
  let ops =
    if traced then max (Array.length block) (length / 2 / Array.length block * Array.length block)
    else length
  in
  let before = if traced then Some (scrape server.port) else None in
  let samples, elapsed, raw_samples, refs =
    drive inputs ~port:server.port ~ops ~calibrate:(not traced)
      ~deadline:(now () +. (2.0 *. seconds))
  in
  let after = if traced then Some (scrape server.port) else None in
  let rss = peak_rss_mb (Some server.pid) in
  let checks = final_checks inputs server.port in
  retire server;
  let failed_ops = List.length (List.filter (fun s -> not s.ok) samples) in
  let failed_checks = List.length (List.filter not checks) in
  let attempted = List.length samples + List.length checks in
  let failed = failed_ops + failed_checks in
  let all = List.map (fun s -> ms s.latency) samples in
  let reads = latencies Read samples in
  let reasons = latencies Reasoned samples in
  let writes = latencies Write samples in
  let done_ = List.filter (fun s -> s.ok) samples in
  let rows = List.fold_left (fun acc s -> acc + s.rows) 0 done_ in
  let ops_stamp =
    [
      ("ops", Json.Int (List.length samples));
      ( "tails",
        Json.Obj
          [
            ("run_tail_ms", tail_json (tail all));
            ("read_tail_ms", tail_json (tail reads));
            ("reason_tail_ms", tail_json (tail reasons));
            ("write_tail_ms", tail_json (tail writes));
          ] );
    ]
  in
  match (before, after) with
  | Some before, Some after ->
    (* In-process replay of the schedule prefix: pass A through the
       router (handler time), pass B composed with spans over exactly
       the ops pass A completed. *)
    let delta p = path after p -. path before p in
    let ratio a b = if b > 0.0 then a /. b else 0.0 in
    let writes_n = float_of_int (List.length writes) in
    let user_bytes =
      List.fold_left
        (fun acc s ->
          match s.op with
          | Append (d, c) -> acc + String.length inputs.datasets.(d).deltas.(c)
          | _ -> acc)
        0 samples
    in
    let rescored = List.fold_left (fun acc s -> acc + s.rescored) 0 samples in
    let appended =
      List.fold_left (fun acc s -> match s.op with Append _ -> acc + s.rows | _ -> acc) 0 samples
    in
    Vadasa_telemetry.Telemetry.set_enabled true;
    let a = inproc_handlers "replay-a" in
    let _, _, router = a in
    prepare (dispatch router) inputs;
    let replay = interleaved inputs.schedules in
    let pass_deadline = now () +. (seconds /. 2.0) in
    let handler_reads = ref [] and k = ref 0 and a_wall = ref 0.0 in
    while !k < Array.length replay && (!k = 0 || now () < pass_deadline) do
      let op = replay.(!k) in
      let raw = request_of inputs op in
      let t0 = now () in
      ignore (dispatch router raw);
      let dt = now () -. t0 in
      a_wall := !a_wall +. dt;
      if kind_of op = Read then handler_reads := ms dt :: !handler_reads;
      incr k
    done;
    close_handlers a;
    let b = inproc_handlers "replay-b" in
    let _, hb, router_b = b in
    Array.iter (fun ds -> ignore (dispatch router_b ds.put)) inputs.datasets;
    List.iter (fun op -> ignore (composed (trace false) hb inputs op)) (warm_ops inputs);
    let tr = trace true in
    let b_failed = ref 0 and b_wall = ref 0.0 and unattributed = ref 0.0 in
    let alloc0 = Gc.allocated_bytes () and major0 = major_collections () in
    for j = 0 to !k - 1 do
      tr.spanned <- 0.0;
      let t0 = now () in
      let ok =
        match composed tr hb inputs replay.(j) with
        | ok -> ok
        | exception e ->
          Printf.eprintf "perfbench: replayed op %d raised %s\n%!" j (Printexc.to_string e);
          false
      in
      let dt = now () -. t0 in
      b_wall := !b_wall +. dt;
      unattributed := !unattributed +. (dt -. tr.spanned);
      if not ok then incr b_failed
    done;
    let alloc = Gc.allocated_bytes () -. alloc0
    and major = major_collections () - major0 in
    close_handlers b;
    let n = float_of_int !k in
    let per_op name = ms (total tr name) /. n in
    let per_op_count name = counted tr name /. n in
    let attempted = attempted + !k and failed = failed + !b_failed in
    {
      attempted;
      failed;
      metrics =
        Layers.of_list
          [
            ("csv.decode_ms", per_op "csv.decode");
            ("risk.k_anonymity_ms", per_op "risk.k_anonymity");
            ("risk.reidentification_ms", per_op "risk.reidentification");
            ("bridge.facts_ms", per_op "bridge.facts");
            ("bridge.facts", per_op_count "bridge.facts");
            ("vadalog.compile_ms", per_op "vadalog.compile");
            ("engine.load_ms", per_op "engine.load");
            ("engine.chase_ms", per_op "engine.chase");
            ("engine.decode_ms", per_op "engine.decode");
            ("engine.facts", per_op_count "engine.facts");
            ("engine.scanned", per_op_count "engine.scanned");
            ("engine.match_ratio", ratio (counted tr "engine.matched") (counted tr "engine.scanned"));
            ("engine.dup_ratio", ratio (counted tr "engine.duplicates") (counted tr "engine.emitted"));
            ("gc.alloc_mb", alloc /. n /. 1048576.0);
            ("gc.major_collections", float_of_int major /. n);
            ("http.overhead_ms", median reads -. median !handler_reads);
            ("codec.decode_ms", per_op "codec.decode");
            ("codec.encode_ms", per_op "codec.encode");
            ( "cache.dataset_hit_ratio",
              ratio (delta [ "caches"; "datasets"; "hits" ])
                (delta [ "caches"; "datasets"; "hits" ] +. delta [ "caches"; "datasets"; "misses" ]) );
            ( "cache.program_hit_ratio",
              ratio (delta [ "caches"; "programs"; "hits" ])
                (delta [ "caches"; "programs"; "hits" ] +. delta [ "caches"; "programs"; "misses" ]) );
            ("registry.append_ms", per_op "registry.append");
            ("registry.rebuild_ratio",
             ratio (delta [ "registry"; "chase_rebuilds" ]) (delta [ "registry"; "appends" ]));
            ("registry.rescored_per_row", ratio (float_of_int rescored) (float_of_int appended));
            ("journal.bytes_per_user_byte",
             ratio (delta [ "persist"; "journal"; "bytes" ]) (float_of_int user_bytes));
            ("journal.fsyncs_per_write", ratio (delta [ "persist"; "journal"; "fsyncs" ]) writes_n);
            ("persist.snapshots", delta [ "persist"; "snapshots" ]);
            ("pool.rejected", delta [ "pool"; "rejected" ]);
            ("bench.unattributed_ms", ms !unattributed /. n);
            ("bench.trace_overhead", ratio !b_wall !a_wall -. 1.0);
            ("reason_p50_ms", median reasons);
            ("reason_tail_ms", (tail reasons).value);
            ("write_p50_ms", median writes);
            ("write_tail_ms", (tail writes).value);
            ("fail_ratio", float_of_int failed /. float_of_int attempted);
          ];
      stamp = stamp @ ops_stamp @ [ ("replayed_ops", Json.Int !k) ];
    }
  | _ ->
    {
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" (median setups);
          metric "ok_ratio" "ratio" (1.0 -. (float_of_int failed /. float_of_int attempted));
          metric "peak_rss_mb" "MB" rss;
          metric "rows_per_s" "1/s" (float_of_int rows /. elapsed);
          metric "req_per_s" "1/s" (float_of_int (List.length done_) /. elapsed);
          metric "run_p50_ms" "ms" (median all);
          metric "run_tail_ms" "ms" (tail all).value;
          metric "read_p50_ms" "ms" (median reads);
          metric "read_tail_ms" "ms" (tail reads).value;
        ];
      stamp =
        stamp @ ops_stamp
        @ [
            ( "host_speed",
              Json.Obj
                [
                  ("reference_nominal_ms", Json.Float reference_nominal_ms);
                  ("reference_p50_ms", Json.Float (median refs));
                  ("raw_setup_s", Json.Float (median raw_setups));
                  ("raw_run_p50_ms", Json.Float (median (List.map (fun s -> ms s.latency) raw_samples)));
                  ("raw_read_tail_ms", Json.Float (tail (latencies Read raw_samples)).value);
                ] );
          ];
    }
