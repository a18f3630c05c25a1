"""Port scanning of harvested onion addresses (Section III)."""
