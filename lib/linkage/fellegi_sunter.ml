module Value = Vadasa_base.Value
module Stats = Vadasa_stats

type t = {
  m : float;
  u : float array;  (* per attribute *)
}

let estimate ?(m = 0.95) oracle =
  let n = Oracle.cardinal oracle in
  if n = 0 then { m; u = [||] }
  else begin
    let width = Array.length (Oracle.qi_values oracle 0) in
    let u =
      Array.init width (fun j ->
          (* u_j = P(agree | random pair) = sum of squared value shares. *)
          let counts = Value.Tbl.create 64 in
          for r = 0 to n - 1 do
            let v = (Oracle.qi_values oracle r).(j) in
            let c = try Value.Tbl.find counts v with Not_found -> 0 in
            Value.Tbl.replace counts v (c + 1)
          done;
          let total = float_of_int n in
          let sum_sq =
            Value.Tbl.fold
              (fun _ c acc ->
                let share = float_of_int c /. total in
                acc +. (share *. share))
              counts 0.0
          in
          (* Clamp away from 0 and 1 so the log weights stay finite. *)
          Float.min 0.999 (Float.max 1e-6 sum_sq))
    in
    { m; u }
  end

let log2 x = log x /. log 2.0

let agreement_weight t j = log2 (t.m /. t.u.(j))

let disagreement_weight t j = log2 ((1.0 -. t.m) /. (1.0 -. t.u.(j)))

let score t target candidate =
  let total = ref 0.0 in
  Array.iteri
    (fun j v ->
      if j < Array.length candidate && j < Array.length t.u then
        if Value.is_null v then ()  (* unknown: no evidence either way *)
        else if Value.equal v candidate.(j) then
          total := !total +. agreement_weight t j
        else total := !total +. disagreement_weight t j)
    target;
  !total

type decision = Match | Possible | Non_match

let classify _t ~upper ~lower total =
  if total >= upper then Match
  else if total <= lower then Non_match
  else Possible

let best_guess rng t oracle target rows =
  match rows with
  | [] -> None
  | _ ->
    let scored =
      List.map (fun r -> (r, score t target (Oracle.qi_values oracle r))) rows
    in
    let best_score =
      List.fold_left (fun acc (_, s) -> Float.max acc s) neg_infinity scored
    in
    let best = List.filter (fun (_, s) -> s >= best_score -. 1e-9) scored in
    let pick = Stats.Rng.int rng (List.length best) in
    let row, _ = List.nth best pick in
    Some
      {
        Matching.row;
        identity = Oracle.identity_of_row oracle row;
        confidence = 1.0 /. float_of_int (List.length best);
        block = List.length rows;
      }
