type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    (* a local float accumulator stays unboxed; a fold boxes each sum *)
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. xs.(i)
    done;
    !sum /. float_of_int n
  end

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let geomean xs =
  if Array.exists (fun x -> x <= 0.0) xs then
    invalid_arg "Stats.geomean: all samples must be positive";
  let n = Array.length xs in
  if n = 0 then 0.0
  else exp (Array.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int n)

(* An in-place heapsort specialised to floats, in [Float.compare] order
   (the order [Array.sort compare] gives floats).  The polymorphic sort
   reads every element through a generic array access and hands both
   operands of each comparison to [compare] boxed; here they never leave
   the unboxed array. *)
let sort_floats (a : float array) =
  (* sift the element at [i] down the max-heap a.(0 .. len-1) *)
  let sift i len =
    let x = a.(i) in
    let i = ref i and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= len then go := false
      else begin
        let c = if l + 1 < len && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l in
        if Float.compare a.(c) x > 0 then begin
          a.(!i) <- a.(c);
          i := c
        end
        else go := false
      end
    done;
    a.(!i) <- x
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- top;
    sift 0 last
  done

let check_percentile name n p =
  if n = 0 then invalid_arg ("Stats." ^ name ^ ": empty input");
  if p < 0.0 || p > 100.0 then invalid_arg ("Stats." ^ name ^ ": p out of range")

let percentile_sorted sorted p =
  let n = Array.length sorted in
  check_percentile "percentile_sorted" n p;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)

let percentile xs p =
  check_percentile "percentile" (Array.length xs) p;
  let sorted = Array.copy xs in
  sort_floats sorted;
  percentile_sorted sorted p

let median xs = percentile xs 50.0

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty input";
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    median = median xs;
  }

let speedup ~baseline t =
  if t <= 0.0 then invalid_arg "Stats.speedup: non-positive time";
  baseline /. t
