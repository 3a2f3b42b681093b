(* The device zoo: named configurations sweeping the architecture axes
   the paper's single testbed holds constant — warp width (8/16/32/64),
   warp-barrier implementation (hardware, software-emulated, absent),
   shared-memory size and L2 geometry.  Every entry is validated at
   module initialization (Config.checked), so a sweep can never build an
   impossible device.

   All zoo entries are quarter-scale (27 SMs, like Config.a100_quarter):
   per-SM behaviour and therefore every relative result matches the
   full-size device at a quarter of the simulation cost, and the sweep
   multiplies whole-figure runs by the zoo size. *)

type entry = { name : string; config : Config.t; blurb : string }

let q = Config.a100_quarter

let mk ~name ~blurb config =
  { name; config = Config.checked { config with Config.name }; blurb }

let sweep =
  [
    mk ~name:"w8-hw"
      ~blurb:"narrow 8-lane warps, hardware masked sync"
      { q with Config.warp_size = 8 };
    mk ~name:"w16-hw"
      ~blurb:"16-lane warps, hardware masked sync"
      { q with Config.warp_size = 16 };
    mk ~name:"w32-hw"
      ~blurb:"the paper's shape: 32-lane warps, hardware masked sync"
      q;
    mk ~name:"w64-hw"
      ~blurb:"AMD-style 64-lane wavefronts with a hardware masked sync"
      { q with Config.warp_size = 64 };
    mk ~name:"w16-sw"
      ~blurb:"16-lane warps, software-emulated masked barrier"
      { q with Config.warp_size = 16; barrier_impl = Config.Sw_barrier };
    mk ~name:"w32-sw"
      ~blurb:"32-lane warps, software-emulated masked barrier (Vortex path)"
      { q with Config.barrier_impl = Config.Sw_barrier };
    mk ~name:"w64-sw"
      ~blurb:"64-lane wavefronts, software-emulated masked barrier"
      { q with Config.warp_size = 64; barrier_impl = Config.Sw_barrier };
    mk ~name:"w32-none"
      ~blurb:"no masked sync at all: the Sec.5.4.1 degrade path"
      { q with Config.barrier_impl = Config.No_barrier };
    mk ~name:"w32-smem8"
      ~blurb:"tight shared memory: 8 KiB/block, 32 KiB/SM"
      {
        q with
        Config.shared_mem_per_block = 8 * 1024;
        shared_mem_per_sm = 32 * 1024;
      };
    mk ~name:"w32-l2tiny"
      ~blurb:"tiny L2 and residency: 1/16 sectors, 32-line warp share"
      {
        q with
        Config.l2_sectors = max 1 (q.Config.l2_sectors / 16);
        linebuf_lines = 32;
      };
  ]

(* The pre-zoo device names keep working everywhere a device is named. *)
let aliases =
  [
    { name = "a100"; config = Config.a100; blurb = "full 108-SM A100-like" };
    {
      name = "a100q";
      config = Config.a100_quarter;
      blurb = "quarter-scale A100-like (default)";
    };
    {
      name = "amd";
      config = Config.amd_like;
      blurb = "full-size device without a masked warp sync";
    };
    { name = "small"; config = Config.small; blurb = "tiny 4-SM test device" };
  ]

let all = aliases @ sweep
let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all

(* A device spec is a zoo name, [key=value,...] overrides over the
   default device, or both: ["w64-sw,num_sms=4"].  This is the syntax of
   OMPSIMD_DEVICE and of the CLI --device flag. *)
let resolve ?(default = Config.a100_quarter) spec =
  let spec = String.trim spec in
  if spec = "" then Ok default
  else
    let head, rest =
      match String.index_opt spec ',' with
      | None -> (spec, "")
      | Some i ->
          ( String.sub spec 0 i,
            String.sub spec (i + 1) (String.length spec - i - 1) )
    in
    let head = String.trim head in
    if String.contains head '=' then
      (* pure key=value overrides over the default device *)
      Config.of_spec ~base:default spec
    else
      match find head with
      | None ->
          Error
            (Printf.sprintf "unknown device %S (known: %s)" head
               (String.concat "|" names))
      | Some e ->
          if String.trim rest = "" then Ok e.config
          else Config.of_spec ~base:e.config rest

let pp_table ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-12s warp %2d  barrier %-4s  %s@ " e.name
        e.config.Config.warp_size
        (Config.barrier_impl_to_string e.config.Config.barrier_impl)
        e.blurb)
    all;
  Format.fprintf ppf "@]"
