"""Architecture conformance linting: annotation extraction, C&C model checks, smells, refactoring plans.

A public name's submodule is imported the first time the name is used, so a
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_MODULES = {
    "errors": (
        "AdlParseError",
        "ArchlintError",
        "ConfigError",
        "EndpointError",
        "PlanError",
        "PlanParseError",
        "PreconditionError",
        "UnknownConnectorError",
    ),
    "findings": ("Finding", "Severity", "SourceLocation"),
    "model": (
        "ArchitectureModel",
        "Component",
        "Connector",
        "Direction",
        "ElementRef",
        "EndpointPath",
        "Multiplicity",
        "Part",
        "Port",
        "RefKind",
        "ROOT_CONTEXT",
        "created_or_deleted",
        "list_elements",
        "normalize_connector",
        "parse_ref",
        "resolve_endpoint",
        "validate_model",
    ),
    "adl": ("parse_architecture", "serialize_architecture"),
    "annotations": (
        "AnnotationInstance",
        "AnnotationKind",
        "CodeModel",
        "TargetKind",
        "extract_attributes",
        "extract_pragmas",
        "resolve_context",
        "validate_targets",
    ),
    "scan": ("ScanConfig", "SmellConfig", "scan_tree"),
    "conformance": (
        "ConformanceReport",
        "check_annotation_completeness",
        "check_architecture_completeness",
        "check_connection_consistency",
        "connector_usages",
        "lookup",
        "run_all",
    ),
    "smells": ("run_smells", "smell_connector_lifecycle", "smell_scattered_component"),
    "refactor": (
        "AddConnector",
        "AddPort",
        "ImpactReport",
        "MovePart",
        "RefactoringPlan",
        "RemoveConnector",
        "RemovePort",
        "RenameElement",
        "SplitComponent",
        "apply_op",
        "apply_plan",
        "parse_plan",
    ),
    "scaffold": ("scaffold_architecture", "write_scaffold"),
}

_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
