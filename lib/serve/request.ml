(* Launch requests and where they come from: a deterministic trace file
   (replayable, diffable) or a seeded synthetic open-loop generator.

   A request names a kernel *template* from the built-in catalog plus a
   problem size.  The template builds the IR (so the content digest —
   the cache identity — is computed from what will actually compile)
   and, for each launch, fresh device arrays seeded from the request's
   own seed.  Each request gets its own memory space: requests share no
   simulator state, which is what makes the replay order-independent of
   host parallelism. *)

module Ir = Ompir.Ir
module Memory = Gpusim.Memory
module Prng = Ompsimd_util.Prng

type spec = {
  id : int;  (* position in the trace, 0-based *)
  at : float;  (* arrival, virtual ticks *)
  kernel : string;  (* catalog template name *)
  size : int;
  teams : int;
  threads : int;
  simdlen : int;
  guardize : bool;
  deadline : float option;  (* absolute ticks (trace syntax is relative) *)
  priority : int;  (* higher dispatches first *)
  seed : int;  (* binding-data seed *)
  tenant : string;  (* fair-admission identity; "-" = the default tenant *)
  device : string option;
      (* zoo-name placement pin for heterogeneous fleets; ignored when
         no shard carries that device *)
}

(* --- the kernel-template catalog -------------------------------------- *)

type bindings = (string * Ompir.Compile.binding) list

(* One record per template: its name, its IR at a size, and its data at
   a size — bindings in the request's memory space, filled from the
   request's generator, and the array to checksum. *)
type template = {
  name : string;
  build : int -> Ir.kernel;
  bind : Memory.space -> Prng.t -> int -> bindings * Memory.farray;
}

let template name params body bind =
  let params = List.map (fun (pname, pty) -> { Ir.pname; pty }) params in
  { name; build = (fun size -> Ir.kernel ~name ~params (body size)); bind }

let width = 8

(* A fresh array of [len] uniform values in [-1, 1). *)
let farr space g len =
  Memory.of_float_array space (Array.init len (fun _ -> Prng.float g 2.0 -. 1.0))

open Ompir.Compile

(* rowsum: the examples/rowsum.omp shape — simd reduction per row plus a
   sequential per-row store (exercises sharing and, under --guardize,
   the S7 transform). *)
let rowsum =
  template "rowsum"
    Ir.[ ("a", P_farray); ("sums", P_farray); ("scale", P_farray); ("rows", P_int); ("w", P_int) ]
    (fun _ ->
      Ir.
        [
          distribute_parallel_for ~var:"r" ~lo:(i 0) ~hi:(v "rows")
            [
              Store
                ( "scale",
                  v "r",
                  Float_lit 1.0
                  + Unop (To_float, Binop (Mod, v "r", Int_lit 3)) );
              Decl { name = "total"; ty = Tfloat; init = f 0.0 };
              simd_sum ~acc:"total" ~var:"k" ~lo:(i 0) ~hi:(v "w")
                ~value:(Load ("a", (v "r" * v "w") + v "k"))
                [];
              Store ("sums", v "r", v "total" * Load ("scale", v "r"));
            ];
        ])
    (fun space g n ->
      let sums = Memory.falloc space n in
      ( [
          ("a", B_farr (farr space g (n * width)));
          ("sums", B_farr sums);
          ("scale", B_farr (Memory.falloc space n));
          ("rows", B_int n);
          ("w", B_int width);
        ],
        sums ))

let saxpy =
  template "saxpy"
    Ir.[ ("x", P_farray); ("y", P_farray); ("alpha", P_float); ("n", P_int); ("w", P_int) ]
    (fun _ ->
      Ir.
        [
          distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n")
            [
              simd ~var:"j" ~lo:(i 0) ~hi:(v "w")
                [
                  Store
                    ( "y",
                      (v "i" * v "w") + v "j",
                      (v "alpha" * Load ("x", (v "i" * v "w") + v "j"))
                      + Load ("y", (v "i" * v "w") + v "j") );
                ];
            ];
        ])
    (fun space g n ->
      let y = farr space g (n * width) in
      ( [
          ("x", B_farr (farr space g (n * width)));
          ("y", B_farr y);
          ("alpha", B_float (Prng.float g 2.0));
          ("n", B_int n);
          ("w", B_int width);
        ],
        y ))

(* stencil: gather-with-wraparound into a simd reduction — uncoalesced
   reads, so the memory system dominates. *)
let stencil =
  template "stencil"
    Ir.[ ("src", P_farray); ("out", P_farray); ("n", P_int); ("w", P_int) ]
    (fun _ ->
      Ir.
        [
          distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n")
            [
              Decl { name = "acc"; ty = Tfloat; init = f 0.0 };
              simd_sum ~acc:"acc" ~var:"j" ~lo:(i 0) ~hi:(v "w")
                ~value:(Load ("src", Binop (Mod, v "i" + (v "j" * v "j"), v "n")))
                [];
              Store ("out", v "i", v "acc" / Unop (To_float, v "w"));
            ];
        ])
    (fun space g n ->
      let out = Memory.falloc space n in
      ( [ ("src", B_farr (farr space g n)); ("out", B_farr out); ("n", B_int n); ("w", B_int width) ],
        out ))

(* hist: atomic scatter into a small bin array — the contention path. *)
let hist =
  template "hist"
    Ir.[ ("src", P_farray); ("bins", P_farray); ("n", P_int) ]
    (fun _ ->
      Ir.
        [
          distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n")
            [ Atomic_add ("bins", Binop (Mod, v "i", Int_lit 64), Load ("src", v "i")) ];
        ])
    (fun space g n ->
      let bins = Memory.falloc space 64 in
      ([ ("src", B_farr (farr space g n)); ("bins", B_farr bins); ("n", B_int n) ], bins))

(* chain: a size-dependent unrolled dependency chain — kernels of
   different sizes are structurally different (distinct digests), and
   the fat body over a deliberately narrow grid (at most 16 elements
   however deep the chain gets) makes compile cost visible next to a
   small launch: the deep-pipeline/little-data shape where a compile
   cache pays. *)
let chain =
  template "chain"
    Ir.[ ("src", P_farray); ("out", P_farray); ("n", P_int) ]
    (fun size ->
      let open Ir in
      let links = max 4 (min 1024 size) in
      let body =
        Decl { name = "t0"; ty = Tfloat; init = Load ("src", v "i") }
        :: List.concat
             (List.init links (fun l ->
                  [
                    Decl
                      {
                        name = Printf.sprintf "t%d" (succ l);
                        ty = Tfloat;
                        init =
                          Unop
                            ( Abs,
                              (Var (Printf.sprintf "t%d" l) * f 0.5)
                              + Load ("src", Binop (Mod, v "i" + i (succ l), v "n")) );
                      };
                  ]))
        @ [ Store ("out", v "i", Var (Printf.sprintf "t%d" links)) ]
      in
      [ distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n") body ])
    (fun space g n ->
      let trip = min 16 n in
      let out = Memory.falloc space trip in
      ([ ("src", B_farr (farr space g trip)); ("out", B_farr out); ("n", B_int trip) ], out))

let catalog = [ rowsum; saxpy; stencil; hist; chain ]
let catalog_names = List.map (fun t -> t.name) catalog

let template_of spec =
  match List.find_opt (fun t -> t.name = spec.kernel) catalog with
  | Some t -> t
  | None ->
      Printf.ksprintf failwith "serve: unknown kernel template %S (known: %s)"
        spec.kernel (String.concat ", " catalog_names)

let kernel_of_spec spec = (template_of spec).build spec.size

(* Bindings: fresh space per request, data filled from the request seed
   (mixed with the template name so equal seeds on different templates
   still decorrelate). *)
let bindings spec =
  let g =
    Prng.create ~seed:(spec.seed + (1021 * String.length spec.kernel)
                       + Char.code spec.kernel.[0])
  in
  (template_of spec).bind (Memory.space ()) g (max 1 spec.size)

let instantiate spec =
  let bindings, out = bindings spec in
  (kernel_of_spec spec, bindings, out)

let checksum arr =
  let acc = ref 0.0 in
  for idx = 0 to Memory.flength arr - 1 do
    acc := !acc +. Memory.host_get arr idx
  done;
  !acc

(* --- trace files ------------------------------------------------------- *)

(* One request per line, [#] comments, whitespace-separated key=value
   tokens.  [kernel=] is required; everything else defaults.  [at] and
   [deadline] are in virtual ticks; [deadline] is relative to [at].

     kernel=rowsum size=64 at=0 teams=2 threads=64 simdlen=8 \
       deadline=500000 prio=1 seed=3 guardize=1 tenant=alice          *)

let default_spec =
  {
    id = 0;
    at = 0.0;
    kernel = "";
    size = 32;
    teams = 2;
    threads = 64;
    simdlen = 8;
    guardize = false;
    deadline = None;
    priority = 0;
    seed = 1;
    tenant = "-";
    device = None;
  }

(* The largest [size] a trace may ask for: the templates allocate arrays
   of size times their row width, so an unbounded size is an unbounded
   allocation.  Far above every traced size (the largest is 512). *)
let max_size = 65_536

let spec_of_tokens ~id ~line_no tokens =
  let fail fmt =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "trace line %d: %s" line_no m))
      fmt
  in
  let parse_kv spec token =
    match String.index_opt token '=' with
    | None -> fail "expected key=value, got %S" token
    | Some eq -> (
        let key = String.sub token 0 eq in
        let value = String.sub token (eq + 1) (String.length token - eq - 1) in
        let int () =
          match int_of_string_opt value with
          | Some v -> v
          | None -> fail "%s wants an integer, got %S" key value
        in
        let ticks () =
          match float_of_string_opt value with
          | Some v when v >= 0.0 && Float.is_finite v -> v
          | _ -> fail "%s wants finite non-negative ticks, got %S" key value
        in
        match key with
        | "kernel" -> { spec with kernel = value }
        | "size" -> { spec with size = int () }
        | "at" -> { spec with at = ticks () }
        | "teams" -> { spec with teams = int () }
        | "threads" -> { spec with threads = int () }
        | "simdlen" -> { spec with simdlen = int () }
        | "deadline" -> { spec with deadline = Some (ticks ()) }
        | "prio" -> { spec with priority = int () }
        | "seed" -> { spec with seed = int () }
        | "guardize" -> { spec with guardize = int () <> 0 }
        | "tenant" ->
            if value = "" then fail "tenant wants a non-empty name"
            else { spec with tenant = value }
        | "device" ->
            if value = "" then fail "device wants a zoo name"
            else { spec with device = Some value }
        | _ -> fail "unknown key %S" key)
  in
  let spec = List.fold_left parse_kv { default_spec with id } tokens in
  if spec.kernel = "" then fail "missing kernel=";
  if not (List.mem spec.kernel catalog_names) then
    fail "unknown kernel template %S (known: %s)" spec.kernel
      (String.concat ", " catalog_names);
  if spec.size < 1 then fail "size must be >= 1";
  if spec.size > max_size then fail "size must be <= %d, got %d" max_size spec.size;
  if spec.teams < 1 then fail "teams must be >= 1";
  if spec.threads < 1 then fail "threads must be >= 1";
  if spec.simdlen < 1 then fail "simdlen must be >= 1";
  (* deadline was parsed relative to arrival *)
  let deadline = Option.map (fun d -> spec.at +. d) spec.deadline in
  if not (Float.is_finite (Option.value deadline ~default:0.0)) then
    fail "deadline overflows the tick range";
  { spec with deadline }

let parse_trace text =
  let specs = ref [] in
  let id = ref 0 in
  List.iteri
    (fun i line ->
      let line =
        match String.index_opt line '#' with
        | Some h -> String.sub line 0 h
        | None -> line
      in
      match
        String.split_on_char ' ' (String.trim line)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      with
      | [] -> ()
      | tokens ->
          specs := spec_of_tokens ~id:!id ~line_no:(i + 1) tokens :: !specs;
          incr id)
    (String.split_on_char '\n' text);
  List.rev !specs

let load_trace path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_trace text

(* --- synthetic open-loop generator ------------------------------------ *)

(* Arrivals are open-loop (independent of service progress) with
   uniform inter-arrival gaps of mean [gap]; templates are drawn
   Zipf-skewed so a warm cache sees realistic repeat traffic; sizes come
   from a small set so repeats really do collide on the same digest. *)
let synthetic ~n ~seed ?(gap = 2000.0) () =
  if n < 0 then invalid_arg "Request.synthetic: negative n";
  let g = Prng.create ~seed in
  let templates = Array.of_list catalog_names in
  let sizes = [| 16; 24; 32; 48 |] in
  let t = ref 0.0 in
  List.init n (fun id ->
      t := !t +. Prng.float g (2.0 *. gap);
      let kernel = templates.(Prng.zipf g ~n:(Array.length templates) ~s:1.1 - 1) in
      let size = sizes.(Prng.int g (Array.length sizes)) in
      let deadline =
        if Prng.int g 4 = 0 then Some (!t +. 2.0e6) else None
      in
      {
        default_spec with
        id;
        at = !t;
        kernel;
        size;
        priority = Prng.int g 3;
        seed = 1 + Prng.int g 5;
        deadline;
      })
