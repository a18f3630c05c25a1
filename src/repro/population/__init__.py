"""Synthetic hidden-service population.

Generates the world the measurement pipeline is pointed at: ~40k hidden
services whose port mix, content topics, languages, botnet behaviours and
popularity are calibrated to the marginals the paper reports.  The pipeline
(scan → crawl → classify → rank) must *recover* these planted distributions;
no experiment reads the generator's ground truth directly.
"""
