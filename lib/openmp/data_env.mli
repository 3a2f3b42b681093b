(** The host-side data environment: [target data] regions and map
    clauses (§3).

    The host allocates device buffers, moves data over the interconnect
    (cost-modelled from byte counts), and hands device arrays to kernels.
    Transfers are tracked so benchmark reports can separate kernel time
    from movement, as the paper's kernel-only timings do. *)

type t

val create : ?interconnect_bytes_per_cycle:float -> unit -> t
(** A fresh device data environment (own address space and L2).
    The default interconnect bandwidth models PCIe-4 x16 at A100 clocks
    (~23 bytes/cycle). *)

val space : t -> Gpusim.Memory.space

type 'a mapping = private {
  device : 'a;
  name : string;
  bytes : int;
  mutable mapped_back : bool;
}

val map_to : t -> name:string -> float array -> Gpusim.Memory.farray mapping
(** [map(to:)] — allocate and copy host→device. *)

val map_alloc : t -> name:string -> int -> Gpusim.Memory.farray mapping
(** [map(alloc:)] — device allocation, no transfer. *)

val map_from : t -> Gpusim.Memory.farray mapping -> float array
(** [map(from:)] at region end — copy device→host. *)

val transfer_cycles : t -> float
(** Total interconnect cycles spent on mapping traffic so far. *)

val h2d_bytes : t -> int
val d2h_bytes : t -> int

val with_target_data :
  t -> (t -> 'a) -> 'a * float
(** Run a target-data region and return its result together with the
    transfer cycles incurred inside it. *)
