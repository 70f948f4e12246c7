"""Link-layer model: Xilinx LocalLink handshake (Sec. 2.7 / Fig. 8).

The cycle simulator abstracts flow control into credit checks; this
package models the *signal-level* protocol the paper's hardware actually
uses -- ``SRC_RDY_N``/``DST_RDY_N``/``SOF_N``/``EOF_N`` with the 2-channel
``CH_STATUS_N``/``CH_TO_STORE`` virtual-channel extension -- so the
handshake itself is a tested artefact.  :func:`run_link` clocks the
FSMs with a plain cycle loop.
"""

from repro.link.locallink import (
    Frame,
    LocalLinkDestination,
    LocalLinkSource,
    LocalLinkWire,
    run_link,
)

__all__ = [
    "LocalLinkSource",
    "LocalLinkDestination",
    "LocalLinkWire",
    "Frame",
    "run_link",
]
