(* Seeded pseudo-random draws for the request streams.

   SplitMix64 rather than [Random]: the stream bytes must depend on the
   seed alone, not on the OCaml release that built the benchmark. *)

type t = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let make ~seed ~salt =
  { s = Int64.(add (mul (of_int seed) golden) (mul (of_int (salt + 1)) 0xD1B54A32D192ED03L)) }

let next t =
  t.s <- Int64.add t.s golden;
  let z = t.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* uniform in [0, 1) with 53 bits *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

(* uniform in [0, bound); the modulo bias is below 2^-40 for the
   bounds used here *)
let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))
let range t lo hi = lo + int t (hi - lo + 1)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Zipfian ranks over a population that may grow (Gray et al., "Quickly
   generating billion-record synthetic databases", as in YCSB): rank 0
   is the hottest.  [zeta n] is kept incrementally, so growing the
   population by one item costs one power. *)
type zipf = {
  theta : float;
  mutable n : int;
  mutable zetan : float;
  zeta2 : float;
}

let zipf ~theta n =
  let z = ref 0. in
  for i = 1 to n do
    z := !z +. (1. /. (float_of_int i ** theta))
  done;
  { theta; n; zetan = !z; zeta2 = 1. +. (1. /. (2. ** theta)) }

let zipf_grow z =
  z.n <- z.n + 1;
  z.zetan <- z.zetan +. (1. /. (float_of_int z.n ** z.theta))

let zipf_rank z t =
  let u = float t in
  let uz = u *. z.zetan in
  if uz < 1. then 0
  else if uz < 1. +. (0.5 ** z.theta) then 1
  else begin
    let n = float_of_int z.n in
    let alpha = 1. /. (1. -. z.theta) in
    let eta = (1. -. ((2. /. n) ** (1. -. z.theta))) /. (1. -. (z.zeta2 /. z.zetan)) in
    min (z.n - 1) (int_of_float (n *. (((eta *. u) -. eta +. 1.) ** alpha)))
  end
