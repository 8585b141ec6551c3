/* Barrier-free blit for arrays of immediates, behind Vec.copy_into_int
   and Vec.copy_into_bool.

   Array.blit cannot know that a polymorphic array holds only immediate
   values, so on a major-heap destination it pays one caml_modify per
   element. An int or bool array holds no pointers: the GC never follows
   its fields, so overwriting them needs no write barrier, and memmove
   is exactly what the OCaml compiler's own stores to a statically-typed
   int array amount to. The OCaml side types the external at int array
   and bool array only, so no boxed value can reach this function. */

#include <string.h>
#include <caml/mlvalues.h>

CAMLprim value fg_vec_blit_imm(value src, value src_pos, value dst,
                               value dst_pos, value len)
{
  memmove(Op_val(dst) + Long_val(dst_pos), Op_val(src) + Long_val(src_pos),
          Long_val(len) * sizeof(value));
  return Val_unit;
}
