"""Hand-made filtered windows for tests."""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filtering import FilteredWindow
from repro.switch.packet import FlowKey

WindowSpec = Tuple[int, int, Sequence[Tuple[int, FlowKey]], Optional[int]]


def make_windows(specs: Sequence[WindowSpec]) -> List[FilteredWindow]:
    """One snapshot's windows from ``(window_index, shift, cells,
    reference_tts)`` specs, ``cells`` being ``(tts, flow)`` pairs.

    The cells of every window intern into one shared flow table in
    first-use order, the form a register read and a PQSTORE1 decode
    produce.
    """
    table: List[FlowKey] = []
    index_of: Dict[FlowKey, int] = {}
    windows = []
    for window_index, shift, cells, reference_tts in specs:
        flow_idx = []
        for _, flow in cells:
            if flow not in index_of:
                index_of[flow] = len(table)
                table.append(flow)
            flow_idx.append(index_of[flow])
        windows.append(
            FilteredWindow(
                window_index,
                shift,
                reference_tts,
                np.array([tts for tts, _ in cells], dtype=np.int64),
                np.array(flow_idx, dtype=np.int64),
                table,
            )
        )
    return windows
