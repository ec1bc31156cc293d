"""Automata models: NFA (Glushkov), NCA, NBVA, and AH-NBVA."""

from . import actions, bitvector
from .actions import (
    COPY,
    SET1,
    SHIFT,
    Action,
    Copy,
    ReadBit,
    ReadBitSet1,
    ReadRange,
    ReadRangeSet1,
    Set1,
    Shift,
    read_action,
    read_set1_action,
)
from .ah import AHNBVA, AHMatcher, AHState, to_action_homogeneous
from .bitvector import BitVector
from .glushkov import glushkov, nested_glushkov
from .nbva import NBVA, NBVAMatcher, Scope, State, Transition
from .optimize import prune, pruning_summary
from .nca import NCAMatcher
from .nfa import NFA, NFAMatcher

__all__ = [
    "AHMatcher",
    "AHNBVA",
    "AHState",
    "Action",
    "BitVector",
    "COPY",
    "Copy",
    "NBVA",
    "NBVAMatcher",
    "NCAMatcher",
    "NFA",
    "NFAMatcher",
    "ReadBit",
    "ReadBitSet1",
    "ReadRange",
    "ReadRangeSet1",
    "SET1",
    "SHIFT",
    "Scope",
    "Set1",
    "Shift",
    "State",
    "Transition",
    "actions",
    "bitvector",
    "glushkov",
    "nested_glushkov",
    "prune",
    "pruning_summary",
    "read_action",
    "read_set1_action",
    "to_action_homogeneous",
]
