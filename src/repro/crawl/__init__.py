"""HTTP(S) crawling of scanned destinations (Section IV)."""
