"""Metamodel-driven toolchain for a textual modeling language.

The pipeline: load a metamodel, generate a grammar from it, adapt that
grammar with a small directive config, then parse, format, complete and
convert instance models between the textual form and an order-preserving
XML exchange format.
"""

from .assist import CursorContext, Proposal, build_template, complete, locate_context
from .diagnostics import (
    ConfigError,
    Diagnostic,
    GrammarError,
    MetamodelError,
    SerializationError,
    Span,
    ToolchainError,
    has_errors,
)
from .grammar import (
    AdaptationConfig,
    Grammar,
    adapt_grammar,
    emit_grammar,
    generate_grammar,
    parse_config,
)
from .metamodel import Metamodel, PrimitiveKind, load_metamodel
from .model import (
    ModelElement,
    QualifiedName,
    ReferenceCache,
    build_cache,
    lookup_first_fitting,
    resolve,
)
from .textsyntax import format_model, lex, parse_model
from .xmlio import from_eaxml, to_eaxml

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "ConfigError",
    "CursorContext",
    "Diagnostic",
    "Grammar",
    "GrammarError",
    "Metamodel",
    "MetamodelError",
    "ModelElement",
    "PrimitiveKind",
    "Proposal",
    "QualifiedName",
    "ReferenceCache",
    "SerializationError",
    "Span",
    "ToolchainError",
    "adapt_grammar",
    "build_cache",
    "build_template",
    "complete",
    "emit_grammar",
    "format_model",
    "from_eaxml",
    "generate_grammar",
    "has_errors",
    "lex",
    "locate_context",
    "lookup_first_fitting",
    "load_metamodel",
    "parse_config",
    "parse_model",
    "resolve",
    "to_eaxml",
    "__version__",
]
