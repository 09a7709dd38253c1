"""Training-data generation from traditional PIC simulations (Sec. IV-A1)."""

from repro.datagen.dataset import FieldDataset
from repro.datagen.campaign import (
    CampaignConfig,
    dataset_from_result,
    harvest_via_client,
    run_campaign,
    run_test_set_ii,
)
from repro.datagen.presets import fast_campaign, medium_campaign, paper_campaign
from repro.datagen.stream import (
    CampaignStream,
    CompletedShard,
    ShardSpec,
    campaign_hash,
)

__all__ = [
    "FieldDataset",
    "CampaignConfig",
    "CampaignStream",
    "CompletedShard",
    "ShardSpec",
    "campaign_hash",
    "dataset_from_result",
    "harvest_via_client",
    "run_campaign",
    "run_test_set_ii",
    "fast_campaign",
    "medium_campaign",
    "paper_campaign",
]
