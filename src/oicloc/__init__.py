"""Weakly-supervised temporal interval localization on class activation
sequences, trained with an outer-inner contrastive loss."""
