module Value = Vadasa_base.Value

type provenance =
  | Edb
  | Derived of {
      rule_id : int;
      rule_label : string;
      parents : (string * Value.t array) list;
    }

(* Positional indexes are built lazily on the first [lookup] over a
   position. Publication must be safe under concurrent readers (the
   server shares quiescent databases across domains): each index table
   is built fully before it becomes reachable, and the position → table
   map is an immutable value swapped in with a compare-and-set, so a
   reader either sees no index (and builds its own candidate) or a
   complete one — never a half-built table. See the thread-safety
   contract in [database.mli]/[engine.mli]. *)
module Index_map = Map.Make (Int)

(* Insertion indexes of the facts sharing one value at a position,
   ascending in the live prefix [0, len); grown by doubling. *)
type bucket = { mutable ids : int array; mutable len : int }

type index = bucket Value.Tbl.t

type pred_store = {
  mutable data : Value.t array array;
  mutable size : int;
  keys : int Value.Array_tbl.t;  (* fact -> insertion index *)
  mutable prov : provenance array;
  indexes : index Index_map.t Atomic.t;
}

type t = {
  preds : (string, pred_store) Hashtbl.t;
  mutable total : int;
  track_provenance : bool;
}

let create ?(track_provenance = true) () =
  { preds = Hashtbl.create 64; total = 0; track_provenance }

let store t pred =
  match Hashtbl.find_opt t.preds pred with
  | Some s -> s
  | None ->
    let s =
      {
        data = [||];
        size = 0;
        keys = Value.Array_tbl.create 256;
        prov = [||];
        indexes = Atomic.make Index_map.empty;
      }
    in
    Hashtbl.add t.preds pred s;
    s

let grow s =
  let cap = Array.length s.data in
  if s.size >= cap then begin
    let cap' = max 16 (2 * cap) in
    let data' = Array.make cap' [||] in
    Array.blit s.data 0 data' 0 s.size;
    s.data <- data';
    let prov' = Array.make cap' Edb in
    Array.blit s.prov 0 prov' 0 s.size;
    s.prov <- prov'
  end

let bucket_add table v idx =
  match Value.Tbl.find_opt table v with
  | None -> Value.Tbl.add table v { ids = [| idx |]; len = 1 }
  | Some b ->
    if b.len = Array.length b.ids then begin
      let ids = Array.make (2 * b.len) 0 in
      Array.blit b.ids 0 ids 0 b.len;
      b.ids <- ids
    end;
    b.ids.(b.len) <- idx;
    b.len <- b.len + 1

(* Maintaining existing indexes on insert is writer-side work: [add] is
   only legal from the single mutating domain (see the contract). *)
let index_insert s pos v idx =
  match Index_map.find_opt pos (Atomic.get s.indexes) with
  | None -> ()
  | Some table -> bucket_add table v idx

let add t ?(prov = Edb) pred args =
  let s = store t pred in
  if Value.Array_tbl.mem s.keys args then false
  else begin
    grow s;
    let idx = s.size in
    s.data.(idx) <- args;
    if t.track_provenance then s.prov.(idx) <- prov;
    Value.Array_tbl.add s.keys args idx;
    s.size <- idx + 1;
    t.total <- t.total + 1;
    Array.iteri (fun pos v -> index_insert s pos v idx) args;
    true
  end

let mem t pred args =
  match Hashtbl.find_opt t.preds pred with
  | None -> false
  | Some s -> Value.Array_tbl.mem s.keys args

let pred_size t pred =
  match Hashtbl.find_opt t.preds pred with None -> 0 | Some s -> s.size

let nth t pred i =
  let s = store t pred in
  if i < 0 || i >= s.size then invalid_arg "Database.nth: out of bounds";
  s.data.(i)

let facts t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some s -> List.init s.size (fun i -> s.data.(i))

let iter_pred t pred f =
  match Hashtbl.find_opt t.preds pred with
  | None -> ()
  | Some s ->
    for i = 0 to s.size - 1 do
      f s.data.(i)
    done

let build_index s pos =
  let table = Value.Tbl.create (max 16 s.size) in
  for i = 0 to s.size - 1 do
    let args = s.data.(i) in
    if pos < Array.length args then bucket_add table args.(pos) i
  done;
  table

(* Publish a fully-built candidate table. On a CAS race the loser
   re-reads: if another domain published the position first its table
   wins (ours is discarded), keeping exactly one live index per
   position. *)
let rec publish_index s pos table =
  let m = Atomic.get s.indexes in
  match Index_map.find_opt pos m with
  | Some existing -> existing
  | None ->
    if Atomic.compare_and_set s.indexes m (Index_map.add pos table m) then table
    else publish_index s pos table

let lookup t pred ~pos v =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some s ->
    let table =
      match Index_map.find_opt pos (Atomic.get s.indexes) with
      | Some table -> table
      | None -> publish_index s pos (build_index s pos)
    in
    (match Value.Tbl.find_opt table v with
    | None -> []
    | Some b ->
      let rec collect i acc =
        if i < 0 then acc else collect (i - 1) (b.ids.(i) :: acc)
      in
      collect (b.len - 1) [])

(* With a pool, each missing position's index is built as its own task
   — index construction over a quiescent store is read-only until the
   CAS publication, which tolerates concurrent builders by design. *)
let build_all_indexes ?pool t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> ()
  | Some s ->
    let arity = if s.size = 0 then 0 else Array.length s.data.(0) in
    let missing = ref [] in
    for pos = arity - 1 downto 0 do
      if not (Index_map.mem pos (Atomic.get s.indexes)) then
        missing := pos :: !missing
    done;
    let build pos = ignore (publish_index s pos (build_index s pos)) in
    (match (pool, !missing) with
    | Some pool, (_ :: _ :: _ as positions)
      when Vadasa_base.Task_pool.domains pool > 1 ->
      let tasks =
        Array.of_list (List.map (fun pos () -> build pos) positions)
      in
      Array.iter
        (function Error e -> raise e | Ok () -> ())
        (Vadasa_base.Task_pool.run_all pool tasks)
    | _, positions -> List.iter build positions)

let total t = t.total

let predicates t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.preds [])

let provenance_of t pred args =
  if not t.track_provenance then None
  else
    match Hashtbl.find_opt t.preds pred with
    | None -> None
    | Some s ->
      (match Value.Array_tbl.find_opt s.keys args with
      | None -> None
      | Some idx -> Some s.prov.(idx))
