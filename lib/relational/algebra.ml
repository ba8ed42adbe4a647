module Value = Vadasa_base.Value

let select pred rel = Relation.filter pred rel

let project rel attrs =
  let positions = Schema.indices_of (Relation.schema rel) attrs in
  let schema' = Schema.restrict (Relation.schema rel) attrs in
  let out = Relation.create schema' in
  Relation.iter (fun t -> Relation.add out (Tuple.project t positions)) rel;
  out

let distinct rel =
  let seen = Value.Array_tbl.create 256 in
  Relation.filter
    (fun t ->
      if Value.Array_tbl.mem seen t then false
      else begin
        Value.Array_tbl.add seen t ();
        true
      end)
    rel

let union a b =
  if Schema.arity (Relation.schema a) <> Schema.arity (Relation.schema b) then
    invalid_arg "Algebra.union: arity mismatch";
  let out = Relation.create (Relation.schema a) in
  Relation.iter (Relation.add out) a;
  Relation.iter (Relation.add out) b;
  out

let sort_by rel cmp =
  let arr = Array.of_list (Relation.to_list rel) in
  Array.sort cmp arr;
  Relation.of_tuples (Relation.schema rel) (Array.to_list arr)

let group_indices rel ~cols =
  let groups = Value.Array_tbl.create 1024 in
  Relation.iteri
    (fun i t ->
      let k = Tuple.project t cols in
      let members = try Value.Array_tbl.find groups k with Not_found -> [] in
      Value.Array_tbl.replace groups k (i :: members))
    rel;
  (* Store members ascending. *)
  Value.Array_tbl.filter_map_inplace
    (fun _ members -> Some (List.rev members))
    groups;
  groups

(* Hash the right side on its join columns, then probe with each left tuple:
   [emit lt rt] for every match, right matches newest first. *)
let hash_join ~left ~l_cols ~right ~r_cols emit =
  let index = Value.Array_tbl.create 1024 in
  Relation.iter
    (fun t ->
      let k = Tuple.project t r_cols in
      let existing = try Value.Array_tbl.find index k with Not_found -> [] in
      Value.Array_tbl.replace index k (t :: existing))
    right;
  Relation.iter
    (fun lt ->
      match Value.Array_tbl.find_opt index (Tuple.project lt l_cols) with
      | None -> ()
      | Some matches -> List.iter (emit lt) matches)
    left

let joined_schema ~left ~right ~right_only =
  let ls = Relation.schema left and rs = Relation.schema right in
  let left_attrs = Array.to_list (Schema.attributes ls) in
  let right_attrs =
    List.filter_map
      (fun a ->
        if List.mem a.Schema.attr_name right_only then Some a else None)
      (Array.to_list (Schema.attributes rs))
  in
  Schema.make
    ~name:(Schema.name ls ^ "_" ^ Schema.name rs)
    (left_attrs @ right_attrs)

let natural_join left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  let shared =
    List.filter (Schema.mem rs) (Schema.attribute_names ls)
  in
  let right_only =
    List.filter (fun a -> not (List.mem a shared)) (Schema.attribute_names rs)
  in
  let schema' = joined_schema ~left ~right ~right_only in
  let out = Relation.create schema' in
  let l_shared = Schema.indices_of ls shared in
  let r_shared = Schema.indices_of rs shared in
  let r_only = Schema.indices_of rs right_only in
  hash_join ~left ~l_cols:l_shared ~right ~r_cols:r_shared (fun lt rt ->
      Relation.add out (Array.append lt (Tuple.project rt r_only)));
  out

let equi_join ~left ~right ~on =
  let ls = Relation.schema left and rs = Relation.schema right in
  let l_cols = Schema.indices_of ls (List.map fst on) in
  let r_cols = Schema.indices_of rs (List.map snd on) in
  let rename a =
    if Schema.mem ls a.Schema.attr_name then
      { a with Schema.attr_name = Schema.name rs ^ "." ^ a.Schema.attr_name }
    else a
  in
  let schema' =
    Schema.make
      ~name:(Schema.name ls ^ "_" ^ Schema.name rs)
      (Array.to_list (Schema.attributes ls)
      @ List.map rename (Array.to_list (Schema.attributes rs)))
  in
  let out = Relation.create schema' in
  hash_join ~left ~l_cols ~right ~r_cols (fun lt rt ->
      Relation.add out (Array.append lt rt));
  out

module Group_stats = struct
  type t = {
    freq : int array;
    weight_sum : float array;
  }

  let weights rel weight =
    Array.init (Relation.cardinal rel) (fun i ->
        match weight with
        | None -> 1.0
        | Some w ->
          (match Value.as_float (Tuple.get (Relation.get rel i) w) with
          | Some x -> x
          | None -> 1.0))

  (* Exact grouping of the listed rows by [proj]: each row gets the size
     and the weight sum (accumulated in list order) of its group. *)
  let credit_exact_groups ~freq ~weight_sum ~proj ~w rows =
    let n = List.length rows in
    let ids = Value.Array_tbl.create (max 16 n) in
    let size = Array.make n 0 and ws = Array.make n 0.0 in
    let gid =
      List.map
        (fun i ->
          let g =
            match Value.Array_tbl.find_opt ids proj.(i) with
            | Some g -> g
            | None ->
              let g = Value.Array_tbl.length ids in
              Value.Array_tbl.add ids proj.(i) g;
              g
          in
          size.(g) <- size.(g) + 1;
          ws.(g) <- ws.(g) +. w.(i);
          g)
        rows
    in
    List.iter2
      (fun i g ->
        freq.(i) <- size.(g);
        weight_sum.(i) <- ws.(g))
      rows gid

  let const_positions ~width mask =
    let acc = ref [] in
    for p = width - 1 downto 0 do
      if mask land (1 lsl p) = 0 then acc := p :: !acc
    done;
    Array.of_list !acc

  (* A constant cohort of step 2: the constant rows sharing one key, their
     count and weight sum. *)
  type cohort = { mutable rows : int list; mutable size : int; mutable ws : float }

  (* A null-pattern class: the null-bearing rows that agree on their null
     positions and on every constant. *)
  type pattern_class = {
    repr : Tuple.t;
    mask : int;
    mutable members : int list;
    mutable class_size : int;
    mutable class_ws : float;
    mutable partners : int list;  (* matching classes, by number *)
  }

  let compute_standard ~rel ~qi ~weight =
    let n = Relation.cardinal rel in
    let freq = Array.make n 0 in
    let weight_sum = Array.make n 0.0 in
    let proj = Array.init n (fun i -> Tuple.project (Relation.get rel i) qi) in
    credit_exact_groups ~freq ~weight_sum ~proj ~w:(weights rel weight)
      (List.init n Fun.id);
    { freq; weight_sum }

  (* Maybe-match grouping: constants grouped exactly; null-pattern classes
     matched against per-mask indexes of the constant tuples, and against
     each other mask pair by mask pair. *)
  let compute_maybe ~rel ~qi ~weight =
    let n = Relation.cardinal rel in
    let freq = Array.make n 0 in
    let weight_sum = Array.make n 0.0 in
    let proj = Array.init n (fun i -> Tuple.project (Relation.get rel i) qi) in
    let w = weights rel weight in
    let const_idx = ref [] and null_idx = ref [] in
    for i = n - 1 downto 0 do
      if Tuple.has_null proj.(i) then null_idx := i :: !null_idx
      else const_idx := i :: !const_idx
    done;
    let const_idx = !const_idx and null_idx = !null_idx in
    (* 1. Exact groups among all-constant tuples. *)
    credit_exact_groups ~freq ~weight_sum ~proj ~w const_idx;
    (* Null tuples start by matching themselves, and cluster into few
       pattern classes (same null positions, same remaining constants —
       null labels are irrelevant to =⊥), numbered by the row of their
       first member and grouped by null mask. *)
    let class_of = Value.Array_tbl.create 64 in
    let classes = ref [] in
    List.iter
      (fun i ->
        freq.(i) <- 1;
        weight_sum.(i) <- w.(i);
        let p = proj.(i) in
        let k = Array.map (fun v -> if Value.is_null v then Value.Null 0 else v) p in
        match Value.Array_tbl.find_opt class_of k with
        | Some c ->
          c.members <- i :: c.members;
          c.class_size <- c.class_size + 1;
          c.class_ws <- c.class_ws +. w.(i)
        | None ->
          let c =
            {
              repr = p;
              mask = Tuple.null_mask p;
              members = [ i ];
              class_size = 1;
              class_ws = w.(i);
              partners = [];
            }
          in
          Value.Array_tbl.add class_of k c;
          classes := c :: !classes)
      null_idx;
    let classes = Array.of_list (List.rev !classes) in
    Array.iter (fun c -> c.members <- List.rev c.members) classes;
    let by_mask = Hashtbl.create 8 in
    for a = Array.length classes - 1 downto 0 do
      let m = classes.(a).mask in
      Hashtbl.replace by_mask m
        (a :: (try Hashtbl.find by_mask m with Not_found -> []))
    done;
    let by_mask =
      Array.of_list
        (List.sort compare (Hashtbl.fold (fun m ids acc -> (m, ids) :: acc) by_mask []))
    in
    let width = Array.length qi in
    (* 2. Null vs constant, via one index per null mask: constant tuples
       keyed by their values at the mask's constant positions. *)
    Array.iter
      (fun (m, ids) ->
        let positions = const_positions ~width m in
        let index = Value.Array_tbl.create 1024 in
        List.iter
          (fun j ->
            let k = Tuple.project proj.(j) positions in
            match Value.Array_tbl.find_opt index k with
            | Some c ->
              c.rows <- j :: c.rows;
              c.size <- c.size + 1;
              c.ws <- c.ws +. w.(j)
            | None ->
              Value.Array_tbl.add index k { rows = [ j ]; size = 1; ws = w.(j) })
          const_idx;
        List.iter
          (fun a ->
            let cls = classes.(a) in
            match
              Value.Array_tbl.find_opt index (Tuple.project cls.repr positions)
            with
            | None -> ()
            | Some c ->
              List.iter
                (fun i ->
                  freq.(i) <- freq.(i) + c.size;
                  weight_sum.(i) <- weight_sum.(i) +. c.ws)
                cls.members;
              List.iter
                (fun j ->
                  freq.(j) <- freq.(j) + cls.class_size;
                  List.iter
                    (fun i -> weight_sum.(j) <- weight_sum.(j) +. w.(i))
                    cls.members)
                c.rows)
          ids)
      by_mask;
    (* 3. Null vs null. Two distinct classes with the same mask differ on a
       position constant in both, so they never match; for each pair of
       distinct masks, the classes of one are indexed on the positions
       constant in both and the classes of the other looked up, so the
       cost is O(masks²·c) lookups rather than a test of every class pair. *)
    Array.iteri
      (fun x (ma, ids_a) ->
        for y = x + 1 to Array.length by_mask - 1 do
          let mb, ids_b = by_mask.(y) in
          let shared = const_positions ~width (ma lor mb) in
          let index = Value.Array_tbl.create 64 in
          List.iter
            (fun b ->
              let k = Tuple.project classes.(b).repr shared in
              Value.Array_tbl.replace index k
                (b :: (try Value.Array_tbl.find index k with Not_found -> [])))
            ids_b;
          List.iter
            (fun a ->
              match
                Value.Array_tbl.find_opt index (Tuple.project classes.(a).repr shared)
              with
              | None -> ()
              | Some bs ->
                List.iter
                  (fun b ->
                    classes.(a).partners <- b :: classes.(a).partners;
                    classes.(b).partners <- a :: classes.(b).partners)
                  bs)
            ids_a
        done)
      by_mask;
    (* Each member collects its class's matches in ascending class order,
       its own class (every other member) in its place. *)
    Array.iteri
      (fun a c ->
        let order = List.sort Int.compare (a :: c.partners) in
        List.iter
          (fun i ->
            List.iter
              (fun b ->
                if b = a then begin
                  if c.class_size > 1 then begin
                    freq.(i) <- freq.(i) + c.class_size - 1;
                    weight_sum.(i) <- weight_sum.(i) +. c.class_ws -. w.(i)
                  end
                end
                else begin
                  let cb = classes.(b) in
                  freq.(i) <- freq.(i) + cb.class_size;
                  weight_sum.(i) <- weight_sum.(i) +. cb.class_ws
                end)
              order)
          c.members)
      classes;
    { freq; weight_sum }

  let compute ~semantics ~rel ~qi ?weight () =
    match (semantics : Null_semantics.t) with
    | Standard -> compute_standard ~rel ~qi ~weight
    | Maybe_match -> compute_maybe ~rel ~qi ~weight
end
