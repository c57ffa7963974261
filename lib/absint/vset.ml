(* Value-set / interval domain for word values (addresses above all).
   Small sets are tracked exactly; a set that outgrows [cap] collapses to
   its interval hull, and an interval that keeps growing under [widen]
   jumps to Top, so every ascending chain at a program point has length
   at most [cap] + 2. *)

type t = Bot | Set of int list | Range of int * int | Top

let cap = 128

let of_sorted = function
  | [] -> Bot
  | lo :: _ as vs ->
    let n = List.length vs in
    if n <= cap then Set vs else Range (lo, List.nth vs (n - 1))

let of_list vs = of_sorted (List.sort_uniq compare vs)
let exact x = Set [ x ]

let bounds = function
  | Bot | Top -> None
  | Set vs -> Some (List.hd vs, List.nth vs (List.length vs - 1))
  | Range (lo, hi) -> Some (lo, hi)

let contains t x =
  match t with
  | Bot -> false
  | Top -> true
  | Set vs -> List.mem x vs
  | Range (lo, hi) -> lo <= x && x <= hi

let to_list = function Bot -> Some [] | Set vs -> Some vs | _ -> None

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Set xs, Set ys -> of_sorted (List.sort_uniq compare (xs @ ys))
  | _ ->
    let lo1, hi1 = Option.get (bounds a) and lo2, hi2 = Option.get (bounds b) in
    Range (min lo1 lo2, max hi1 hi2)

let equal (a : t) b = a = b

let widen old n =
  let j = join old n in
  if equal j old then old
  else
    match (old, j) with
    (* an interval still growing after the Set stage widens straight out *)
    | Range _, Range _ -> Top
    | _ -> j

let map f = function
  | Bot -> Bot
  | Set vs -> of_list (List.map f vs)
  | Range _ | Top -> Top

let map2 f a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Set xs, Set ys when List.length xs * List.length ys <= 4 * cap ->
    of_list (List.concat_map (fun x -> List.map (f x) ys) xs)
  | _ -> Top

let remove x = function
  | Set vs -> of_sorted (List.filter (fun v -> v <> x) vs)
  | Range (lo, hi) when x = lo -> if lo = hi then Bot else Range (lo + 1, hi)
  | Range (lo, hi) when x = hi -> Range (lo, hi - 1)
  | t -> t

let pp ppf = function
  | Bot -> Format.fprintf ppf "bot"
  | Top -> Format.fprintf ppf "top"
  | Set vs ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf v -> Format.fprintf ppf "0x%X" v))
      vs
  | Range (lo, hi) -> Format.fprintf ppf "[0x%X,0x%X]" lo hi
