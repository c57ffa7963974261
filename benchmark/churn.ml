(* Key stream of the cache-churn workload.

   Keys are ranks 0..keys-1, rank 0 the most popular.  The stream holds
   each rank exactly as often as a Zipf law with the given exponent
   predicts (largest-remainder rounding), in one fixed shuffled order.
   The stream does not depend on the seed, so every seed presents the
   cache with the same reuse pattern, and hit ratio and throughput move
   with the code rather than with the draw (independent draws under a
   tight LRU budget swung throughput by a third between two seeds). *)

let multiplicities ~exponent ~keys ~length =
  let w = Array.init keys (fun k -> 1. /. (float_of_int (k + 1) ** exponent)) in
  let total = Array.fold_left ( +. ) 0. w in
  let ideal = Array.map (fun x -> float_of_int length *. x /. total) w in
  let m = Array.map int_of_float ideal in
  let short = length - Array.fold_left ( + ) 0 m in
  let rem k = ideal.(k) -. floor ideal.(k) in
  let by_remainder =
    List.sort
      (fun a b ->
        match Float.compare (rem b) (rem a) with 0 -> compare a b | c -> c)
      (List.init keys Fun.id)
  in
  List.iteri (fun i k -> if i < short then m.(k) <- m.(k) + 1) by_remainder;
  m

let stream ~exponent ~keys ~length =
  let m = multiplicities ~exponent ~keys ~length in
  let a = Array.make length 0 in
  let pos = ref 0 in
  Array.iteri
    (fun k c ->
      for _ = 1 to c do
        a.(!pos) <- k;
        incr pos
      done)
    m;
  let rng = Random.State.make [| 0 |] in
  for i = length - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* What the seed decides: whether the two byte-identical Verilog copies
   trade popularity ranks. *)
let swap_files ~seed = Random.State.bool (Random.State.make [| seed |])
