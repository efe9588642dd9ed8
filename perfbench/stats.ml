(* Order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks, [p] in [0, 100]; 0 on an
   empty list. *)
let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let w = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let median xs = percentile xs 50.0
let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den = if den > 0.0 then num /. den else 0.0
