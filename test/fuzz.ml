(* Inputs for front-door fuzz properties: random bytes, or a valid seed
   with one to three single-character edits (delete, insert, replace,
   or a duplicated separator), the inserted characters drawn from the
   spec's own alphabet or from any byte. *)

let input ~alphabet ~sep seeds =
  let open QCheck.Gen in
  let spec_char = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
  let edit s =
    let n = String.length s in
    int_bound (max 0 (n - 1)) >>= fun i ->
    oneof [ spec_char; char ] >>= fun c ->
    let i = min i n in
    oneofl
      [
        String.sub s 0 i ^ String.sub s (min n (i + 1)) (n - min n (i + 1));
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.mapi (fun j x -> if j = i then c else x) s;
        String.sub s 0 i ^ sep ^ String.sub s i (n - i);
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  frequency
    [
      (1, string_size ~gen:char (int_bound 40));
      (3, pair (int_range 1 3) (oneofl seeds) >>= fun (k, s) -> edits k s);
    ]
