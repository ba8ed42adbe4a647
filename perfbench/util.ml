(* Shared pieces of the benchmark: clocks, order statistics, the span
   recorder used by traced runs, process memory, and result output. *)

module Json = Vadasa_base.Json

let now = Unix.gettimeofday

let ms s = s *. 1000.0

(* ---- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The tail of a latency sample: the highest percentile that still has
   ten samples beyond it, i.e. the eleventh-largest value. With ten
   samples or fewer no such percentile exists; the maximum is reported
   and [percentile] is 100. *)
type tail = { value : float; percentile : float; samples : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = 0.0; percentile = 0.0; samples = 0 }
  else if n <= 10 then { value = a.(n - 1); percentile = 100.0; samples = n }
  else
    {
      value = a.(n - 11);
      percentile = 100.0 *. float_of_int (n - 10) /. float_of_int n;
      samples = n;
    }

let tail_json t =
  Json.Obj
    [
      ("percentile", Json.Float t.percentile); ("samples", Json.Int t.samples);
    ]

(* ---- host speed ----------------------------------------------------------- *)

(* On a shared host the speed of memory-bound code swings by up to 2x
   over tens of seconds, with no steal time to show for it: neighbours
   contend for caches and memory, not for our cores. A fixed kernel of
   the benchmark's own code (stdlib hashing, allocation and sorting; no
   program code, so no change to the program moves it) is timed between
   operations. An operation's time is scaled by [reference_nominal_ms]
   over the mean of the kernel times just before and just after it, so
   it reads as the time on a host where the kernel takes
   [reference_nominal_ms]. The raw times go in the stamp. *)
let reference_nominal_ms = 60.0

let reference_kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 59_999 do
    let key = (string_of_int (i * 7919 mod 20011), i mod 97) in
    match Hashtbl.find_opt h key with
    | Some r -> incr r
    | None -> Hashtbl.replace h key (ref 1)
  done;
  let l = Hashtbl.fold (fun (s, b) r acc -> (String.length s + b + !r) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare l))

(* Wall time of one run of the kernel, in ms. With [domains] > 1 the
   kernel runs on that many domains at once and the mean of their times
   is returned: the reference for a program that keeps that many cores
   busy, as a server with that many worker domains does. *)
let reference_ms ?(domains = 1) () =
  let timed () =
    let t0 = now () in
    reference_kernel ();
    ms (now () -. t0)
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn timed) in
  let own = timed () in
  mean (own :: List.map Domain.join others)

(* The factor that scales a time measured between kernel runs taking
   [before] and [after] ms. *)
let speed_factor ~before ~after = reference_nominal_ms /. ((before +. after) /. 2.0)

(* ---- spans ---------------------------------------------------------------- *)

(* A traced run wraps each call into a library layer in [span]. Totals
   are kept per span name; [counts] holds work counters recorded at the
   same boundaries. Only outermost spans add to [spanned], so
   [op wall - spanned] is the time no layer span covers. With [on =
   false] a span is a plain call. *)
type trace = {
  on : bool;
  totals : (string, float ref) Hashtbl.t;
  counts : (string, float ref) Hashtbl.t;
  mutable depth : int;
  mutable spanned : float;
}

let trace on =
  {
    on;
    totals = Hashtbl.create 32;
    counts = Hashtbl.create 32;
    depth = 0;
    spanned = 0.0;
  }

let bump tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tbl name (ref v)

let count tr name v = if tr.on then bump tr.counts name v

let span tr name f =
  if not tr.on then f ()
  else begin
    let t0 = now () in
    tr.depth <- tr.depth + 1;
    let finish () =
      let dt = now () -. t0 in
      tr.depth <- tr.depth - 1;
      bump tr.totals name dt;
      if tr.depth = 0 then tr.spanned <- tr.spanned +. dt
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let total tr name =
  match Hashtbl.find_opt tr.totals name with Some r -> !r | None -> 0.0

let counted tr name =
  match Hashtbl.find_opt tr.counts name with Some r -> !r | None -> 0.0

(* ---- process facts -------------------------------------------------------- *)

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* The host shape a result was taken on; results from different shapes
   are not comparable. *)
let host_shape () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ("os", Json.Str Sys.os_type);
    ]

(* ---- results -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  stamp : (string * Json.t) list;
      (* seed, input sizes, flush policy, tail sample counts *)
}

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]
               ))
             r.metrics) );
    ]

(* ---- scratch files -------------------------------------------------------- *)

(* Every file the benchmark writes lives under this directory of the
   working directory (the checkout root). *)
let work_dir = "_perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Registered before any server is started, so it runs after their
   directories are removed. *)
let () = at_exit (fun () -> try Unix.rmdir work_dir with Unix.Unix_error _ -> ())

let fresh_dir tag =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let dir =
    Filename.concat work_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* ---- per-layer metric table ----------------------------------------------- *)

(* Every per-layer metric with its unit, in report order. A traced run
   emits all of them on every workload; a layer the workload does not
   exercise reads 0. Values are per operation (job or request) unless
   the name says otherwise. *)
module Layers = struct
  let table =
    [
      ("csv.decode_ms", "ms"); ("csv.encode_ms", "ms");
      ("categorize.run_ms", "ms");
      ("risk.k_anonymity_ms", "ms"); ("risk.reidentification_ms", "ms");
      ("risk.suda_ms", "ms"); ("risk.individual_ms", "ms");
      ("cycle.run_ms", "ms"); ("cycle.rounds", "count"); ("cycle.nulls", "count");
      ("bridge.facts_ms", "ms"); ("bridge.facts", "count");
      ("vadalog.compile_ms", "ms"); ("engine.load_ms", "ms");
      ("engine.chase_ms", "ms"); ("engine.decode_ms", "ms");
      ("engine.facts", "count"); ("engine.scanned", "count");
      ("engine.match_ratio", "ratio"); ("engine.dup_ratio", "ratio");
      ("bridge.reasoned_native_ratio", "ratio");
      ("gc.alloc_mb", "MB"); ("gc.major_collections", "count");
      ("http.overhead_ms", "ms"); ("codec.decode_ms", "ms");
      ("codec.encode_ms", "ms");
      ("cache.dataset_hit_ratio", "ratio"); ("cache.program_hit_ratio", "ratio");
      ("registry.append_ms", "ms"); ("registry.rebuild_ratio", "ratio");
      ("registry.rescored_per_row", "ratio");
      ("journal.bytes_per_user_byte", "ratio");
      ("journal.fsyncs_per_write", "ratio"); ("persist.snapshots", "count");
      ("pool.rejected", "count");
      ("bench.unattributed_ms", "ms"); ("bench.trace_overhead", "ratio");
      ("reason_p50_ms", "ms"); ("reason_tail_ms", "ms");
      ("write_p50_ms", "ms"); ("write_tail_ms", "ms");
      ("info_loss", "ratio"); ("fail_ratio", "ratio");
    ]

  let of_list values =
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name table) then
          invalid_arg ("unknown per-layer metric " ^ name))
      values;
    List.map
      (fun (name, unit_) ->
        metric name unit_
          (Option.value ~default:0.0 (List.assoc_opt name values)))
      table
end
