"""Knowledge nodes, feature extraction and the knowledge base (§4.3-4.4)."""

from .base import (NODE_SCHEMA, FrozenKnowledgeView, KnowledgeBase,
                   KnowledgeRow)
from .extractor import (BagOfConceptsExtractor, BagOfWordsExtractor,
                        FeatureExtractor, complaint_document,
                        extract_test_features, extract_training_features,
                        test_document, training_document)
from .node import KnowledgeNode

__all__ = [
    "BagOfConceptsExtractor",
    "BagOfWordsExtractor",
    "FeatureExtractor",
    "FrozenKnowledgeView",
    "KnowledgeBase",
    "KnowledgeRow",
    "KnowledgeNode",
    "NODE_SCHEMA",
    "complaint_document",
    "extract_test_features",
    "extract_training_features",
    "test_document",
    "training_document",
]
