type t = {
  space : Gpusim.Memory.space;
  bw : float;
  mutable h2d : int;
  mutable d2h : int;
}

type 'a mapping = {
  device : 'a;
  name : string;
  bytes : int;
  mutable mapped_back : bool;
}

let create ?(interconnect_bytes_per_cycle = 23.0) () =
  if interconnect_bytes_per_cycle <= 0.0 then
    invalid_arg "Data_env.create: bandwidth must be positive";
  { space = Gpusim.Memory.space (); bw = interconnect_bytes_per_cycle; h2d = 0; d2h = 0 }

let space t = t.space

let map_to t ~name host =
  let bytes = 8 * Array.length host in
  t.h2d <- t.h2d + bytes;
  {
    device = Gpusim.Memory.of_float_array t.space host;
    name;
    bytes;
    mapped_back = false;
  }

let map_alloc t ~name n =
  if n < 0 then invalid_arg "Data_env.map_alloc: negative length";
  { device = Gpusim.Memory.falloc t.space n; name; bytes = 8 * n; mapped_back = false }

let map_from t mapping =
  t.d2h <- t.d2h + mapping.bytes;
  mapping.mapped_back <- true;
  Gpusim.Memory.to_float_array mapping.device

let transfer_cycles t = float_of_int (t.h2d + t.d2h) /. t.bw
let h2d_bytes t = t.h2d
let d2h_bytes t = t.d2h

let with_target_data t f =
  let before = transfer_cycles t in
  let result = f t in
  (result, transfer_cycles t -. before)
