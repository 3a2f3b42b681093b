type t = int

let empty = 0

let slots n =
  if n < 0 then invalid_arg "Payload.slots: negative slot count";
  n

let length t = t
let bytes t = 8 * t

let charge_per_slot (th : Gpusim.Thread.t) t =
  let cost = th.Gpusim.Thread.cfg.Gpusim.Config.cost in
  Gpusim.Thread.tick th (float_of_int t *. cost.Gpusim.Config.alu)

let pack = charge_per_slot
let unpack = charge_per_slot
