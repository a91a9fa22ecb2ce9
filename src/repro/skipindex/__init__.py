"""The skip index (Section 2.3 of the paper).

A compact structural index embedded in the document stream itself: for
every element, the set of tags occurring in its subtree (a bit array
over a tag dictionary) and the encoded size of the subtree.  The index
lets the Secure Operating Environment *skip* subtrees in which no
access-rule or query automaton can reach a final state, saving both
transfer and decryption -- "the two limiting factors of the target
architecture".

Three encodings are provided (experiment E4 ablates them):

* ``IndexMode.NONE``      -- no index; the whole document streams.
* ``IndexMode.FLAT``      -- one full-width bitmap per element.
* ``IndexMode.RECURSIVE`` -- the paper's scheme: each bitmap is encoded
  on the support of its parent's bitmap and subtree sizes are
  width-bounded by the parent size, i.e. "recursive compression on
  both the set of tags bit array and the subtree size".
"""

from repro.skipindex.encoder import IndexMode, encode_document, encoded_size
from repro.skipindex.decoder import (
    OpenFrame,
    SXSDecoder,
    SXSFormatError,
    decode_document,
)
from repro.skipindex.tagdict import TagDictionary

__all__ = [
    "IndexMode",
    "OpenFrame",
    "SXSDecoder",
    "SXSFormatError",
    "TagDictionary",
    "decode_document",
    "encode_document",
    "encoded_size",
]
