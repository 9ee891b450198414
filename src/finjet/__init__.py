"""Finite-set stage semantics, graph-ball neighborhoods, and section-jet bundles."""

from .finset import FinMap, FinSet, Span, UNIT
from .kripke import PartialMapAtStage, SubobjectAtStage
from .polyfun import Bundle, DependentProduct, SliceMorphism
from .relations import EndoRelation, Relation, RelationMorphism
from .jets import JetBundle, PhiContext, SectionJet
from .fibdual import Comorphism
from .workspace import Workspace, parse_workspace, serialize_workspace

__all__ = [
    "FinMap",
    "FinSet",
    "Span",
    "UNIT",
    "PartialMapAtStage",
    "SubobjectAtStage",
    "Bundle",
    "DependentProduct",
    "SliceMorphism",
    "EndoRelation",
    "Relation",
    "RelationMorphism",
    "JetBundle",
    "PhiContext",
    "SectionJet",
    "Comorphism",
    "Workspace",
    "parse_workspace",
    "serialize_workspace",
]
