(* Sanitizer site labels for IR memory accesses.

   Both engines label sites here so a given access site carries the
   same provenance string whether the kernel runs under the walker or
   the staged compiler — the differential suite compares formatted
   sanitizer reports across engines, so the text must match exactly.
   Labels render the index expression with {!Printer.pp_expr}.

   A site is only a description until a sanitizing launch reaches it:
   the label is printed and interned in {!Gpusim.Ompsan}'s registry on
   first use, so an unsanitized compile or launch formats nothing and
   takes no lock.  The id cell is a domain-safe memo: two domains that
   race on a site's first use both register the same label, the
   registry dedups it, and both store the same id. *)

type t = { kind : string; arr : string; idx : Ir.expr; id : int Atomic.t }

let make kind arr idx = { kind; arr; idx; id = Atomic.make (-1) }
let load arr idx = make "load" arr idx
let store arr idx = make "store" arr idx
let atomic arr idx = make "atomic" arr idx

let label s =
  Printf.sprintf "%s %s[%s]" s.kind s.arr
    (Format.asprintf "%a" Printer.pp_expr s.idx)

let id s =
  let id = Atomic.get s.id in
  if id >= 0 then id
  else begin
    let id = Gpusim.Ompsan.register_site (label s) in
    Atomic.set s.id id;
    id
  end
